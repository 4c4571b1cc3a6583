//===- Lint.h - Static analysis of litmus programs --------------*- C++ -*-==//
///
/// \file
/// A static analyzer over `litmus::Program` with two products:
///
///  * **Diagnostics** (`lintProgram`): structured findings for real DSL
///    mistakes that today surface only as silently-empty candidate sets or
///    vacuous postconditions — unused/uninitialized locations, event or
///    transaction counts exceeding the enumerator's caps (`kMaxEvents`,
///    `kMaxTxns`), unbalanced or ill-nested transaction and lock regions
///    (a lock region cut by a transaction boundary included: the abort
///    path drops one of its lock calls), RMW partner indices that do not pair up, postcondition assertions
///    naming nonexistent loads or locations, and dependency references
///    pointing at non-loads. Surfaced by the `tmw_lint` CLI, as a CI gate
///    over the corpus, and by the query engine, which refuses any program
///    with an error-severity finding instead of answering it.
///
///  * **Sound program facts** (`computeFacts`): which vocabulary classes
///    (models/Axiom.h `namespace vocab`) the program can possibly speak.
///    The facts *over-approximate* every candidate execution the
///    enumerator can derive from the program — transactions only come from
///    `txbegin`, RMW edges only from declared `rmw:` partners, fences and
///    lock calls map one-to-one — so a vocabulary class absent from the
///    program is absent from every candidate. `EvalPlan::specialize`
///    cashes this in: axiom obligations whose declared `Footprint` is
///    disjoint from the program's vocabulary are discharged to their
///    vacuous verdict once per program. `executionVocabulary` is the
///    execution-level analogue the contract auditor uses to machine-check
///    declared footprints.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_LINT_LINT_H
#define TMW_LINT_LINT_H

#include "litmus/Program.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tmw {

class Execution;

/// Finding severity. Errors mean the program cannot behave as written
/// (the enumerator would drop events, candidates, or whole postconditions
/// silently), so the query engine refuses it; warnings flag
/// suspicious-but-legal constructions, and the engine answers them.
enum class LintSeverity : uint8_t { Error, Warning };

/// Stable lowercase severity name ("error", "warning").
const char *lintSeverityName(LintSeverity S);

/// One lint finding. `Code` is an interned literal (stable across
/// releases; CI scripts may match on it); `Thread`/`Instruction` are -1
/// for program-level findings; `Line` is the 1-based source line when the
/// program was parsed from DSL text — the named instruction's, else the
/// `post`'s for a postcondition finding (0 for programmatically built
/// programs, which carry no `Program::SrcLines` or post lines).
struct LintFinding {
  LintSeverity Severity = LintSeverity::Error;
  std::string_view Code;
  std::string Message;
  int Thread = -1;
  int Instruction = -1;
  unsigned Line = 0;
};

/// All findings for one program, in deterministic rule order (caps and
/// location rules first, then per-thread walks, then postconditions).
struct LintReport {
  std::vector<LintFinding> Findings;

  bool hasErrors() const {
    for (const LintFinding &F : Findings)
      if (F.Severity == LintSeverity::Error)
        return true;
    return false;
  }
};

/// Run every lint rule over \p P.
LintReport lintProgram(const Program &P);

/// Sound static facts about one program (see file comment). Every flag is
/// conservative in the safe direction: `TxnFree = true` *guarantees* no
/// candidate execution has a transaction; `false` promises nothing.
struct ProgramFacts {
  bool TxnFree = true;         ///< No `txbegin` anywhere.
  bool RmwFree = true;         ///< No declared RMW partner anywhere.
  bool LockRegionFree = true;  ///< No lock/unlock/txlock/txunlock calls.
  bool SingleLocation = true;  ///< At most one distinct location accessed.
  bool AtomicOnly = true;      ///< Every access has a C++ memory order.
  /// Bitmask over `FenceKind` values (bit = static_cast<unsigned>(K)) of
  /// the fence flavours that appear.
  uint32_t FenceKinds = 0;
  /// The program's vocabulary: `vocab::Base` plus one bit per class the
  /// program speaks. Superset of `executionVocabulary` of every candidate.
  uint32_t Vocabulary = 0;
  /// Events of the candidate in which every transaction succeeds — the
  /// largest candidate the enumerator builds. Checked against `kMaxEvents`.
  unsigned Events = 0;
  /// Transactions (`txbegin` instructions); the enumerator tries every
  /// success mask over them. Checked against `kMaxTxns`.
  unsigned Txns = 0;
};

/// Compute the facts for \p P. O(instructions).
ProgramFacts computeFacts(const Program &P);

/// The enumerator-cap findings for a program with facts \p F:
/// `too-many-events` (past `kMaxEvents`), then `too-many-txns` (past
/// `kMaxTxns`); empty when the program fits both caps. `lintProgram`
/// reports them first, so the query engine's refusal of an over-cap
/// program leads with them.
std::vector<LintFinding> capFindings(const ProgramFacts &F);

/// The vocabulary classes one concrete execution speaks — the
/// execution-level analogue of `ProgramFacts::Vocabulary`, used by the
/// contract auditor's footprint pass to check declared `Axiom::Footprint`
/// values against term behaviour on probe executions.
uint32_t executionVocabulary(const Execution &X);

} // namespace tmw

#endif // TMW_LINT_LINT_H
