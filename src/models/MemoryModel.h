//===- MemoryModel.h - Axiomatic consistency predicates ---------*- C++ -*-==//
///
/// \file
/// The `MemoryModel` interface: a consistency predicate over executions,
/// expressed as a declarative list of named axioms (`Axiom.h`). Concrete
/// models carry the axioms from the paper's Fig. 4 (SC/TSC), Fig. 5 (x86),
/// Fig. 6 (Power), Fig. 8 (ARMv8), and Fig. 9 (C++) as static tables; one
/// generic engine here evaluates the enabled axioms, so per-axiom ablation
/// (`AxiomMask`, addressed by axiom name), diagnostics (`checkAll` with
/// witness cycles), and the §9 comparisons are the same code for every
/// model.
///
/// Checks are phrased over an `ExecutionAnalysis`, the memoized view of an
/// immutable execution: evaluating several models (or several ablation
/// configurations) on one candidate shares every derived relation, and
/// model-specific compound terms (an architecture's happens-before, say)
/// are memoized per mask through `ExecutionAnalysis::memoTerm`. An
/// `Execution` converts implicitly to a temporary single-check analysis,
/// so `M.check(X)` / `M.consistent(X)` keep working as before.
///
/// Models are immutable after configuration; all mutable caching lives in
/// the analysis, so const models are shared freely across enumeration
/// shards.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_MEMORYMODEL_H
#define TMW_MODELS_MEMORYMODEL_H

#include "execution/ExecutionAnalysis.h"
#include "models/Axiom.h"

#include <vector>

namespace tmw {

/// Outcome of a consistency check.
struct ConsistencyResult {
  bool Consistent;
  /// Name of the first violated axiom; empty when consistent. The view is
  /// *interned*: it points into the model's static axiom table, stays
  /// valid for the program's lifetime, and is NUL-terminated (see
  /// Axiom.h), so no lifetime hazard attaches to storing it.
  std::string_view FailedAxiom;

  static ConsistencyResult ok() { return {true, {}}; }
  static ConsistencyResult fail(std::string_view Axiom) {
    return {false, Axiom};
  }
  explicit operator bool() const { return Consistent; }
};

/// Per-axiom outcome from `checkAll`.
struct AxiomVerdict {
  /// The axiom, pointing into the model's static table.
  const Axiom *Ax = nullptr;
  bool Enabled = true;
  /// Whether the constraint holds. Disabled or modifier axioms are not
  /// evaluated and report `Holds = true`.
  bool Holds = true;
  /// For a failed axiom, the events witnessing the violation:
  ///  * Acyclic     — the events of one cycle in the term (each
  ///                  consecutive pair, and the closing pair, in the term);
  ///  * Irreflexive — a singleton {e} with (e, e) in the term;
  ///  * Empty       — the field (domain u range) of the non-empty term.
  EventSet Witness;
};

/// Full per-axiom report of one consistency check.
struct CheckReport {
  bool Consistent = true;
  /// First violated axiom (table order), empty when consistent.
  std::string_view FailedAxiom;
  /// One verdict per entry of `axioms()`, in table order.
  std::vector<AxiomVerdict> Verdicts;
};

/// Target architectures / languages.
enum class Arch : uint8_t { SC, TSC, X86, Power, Armv8, Cpp };

/// Human-readable architecture name.
const char *archName(Arch A);

/// An axiomatic memory model: a named list of axioms selecting the
/// consistent candidate executions, evaluated by the generic engine below.
class MemoryModel {
public:
  virtual ~MemoryModel();

  virtual const char *name() const = 0;
  virtual Arch arch() const = 0;
  /// The model's axiom list — a view of a static table (per-instance for
  /// wrappers like `ImplModel` that extend a wrapped spec's list).
  virtual AxiomList axioms() const = 0;

  /// Enabled-axiom mask (indices into `axioms()`); defaults to all.
  const AxiomMask &axiomMask() const { return Mask; }
  void setAxiomMask(AxiomMask M) { Mask = M; }
  /// Enable/disable one axiom by name (exact, case-sensitive); false when
  /// the name is unknown. The typed way to configure a concrete model; a
  /// registry spec (`ModelRegistry::parse("power/-tprop1")`) is the way
  /// to name one. The result must be checked: a misspelled name is
  /// otherwise dropped without a word.
  [[nodiscard]] bool setAxiomEnabled(std::string_view Name, bool On);
  /// Whether the named axiom is enabled (false for unknown names).
  bool axiomEnabled(std::string_view Name) const;

  /// Evaluate the enabled axioms over \p A in table order, stopping at the
  /// first violation. Checks are const and do not mutate the model; all
  /// caching lives in the analysis.
  ConsistencyResult check(const ExecutionAnalysis &A) const;
  /// The same check over the enabled axioms that are also in \p Only (an
  /// index mask over `axioms()`). Terms still see the model's own mask,
  /// so each evaluated axiom means what it means in `check(A)`; the
  /// verdict equals `check(A)`'s whenever every enabled axiom left out
  /// holds on \p A. The Forbid search (synth/Conformance.h) leaves out
  /// the obligations the baseline has already proved on a placement's
  /// base.
  ConsistencyResult check(const ExecutionAnalysis &A, AxiomMask Only) const;

  /// Evaluate *every* enabled axiom (no early exit) and report per-axiom
  /// verdicts plus a witness for each violation — the diagnostics path
  /// behind `litmus_tool --explain`.
  CheckReport checkAll(const ExecutionAnalysis &A) const;

  bool consistent(const ExecutionAnalysis &A) const {
    return check(A).Consistent;
  }

protected:
  /// True when any TM-extension axiom is enabled — concrete models use
  /// this to render "x86+TM" versus "x86".
  bool anyTmEnabled() const;

  AxiomMask Mask;
};

/// Shared cat-style axiom terms that several models' tables reference
/// (defined once next to the generic engine so the definitions cannot
/// silently diverge across models).
namespace terms {
/// poloc u com — the per-location coherence order.
Relation coherence(const ExecutionAnalysis &A, AxiomMask);
/// rmw n (fre ; coe) — an intervening external write inside an RMW.
Relation rmwIsolation(const ExecutionAnalysis &A, AxiomMask);
/// stronglift(com, stxn) — the strong-isolation lift (§3.3).
Relation strongIsolation(const ExecutionAnalysis &A, AxiomMask);
/// The implicit transaction fences (the `tfence` modifier's term).
Relation tfence(const ExecutionAnalysis &A, AxiomMask);
/// rmw n tfence+ — an exclusive pair straddling a transaction boundary
/// (the failure semantics Power and ARMv8 share, and the guard of the
/// cross-arch hierarchy edges in models/EvalPlan.h).
Relation txnCancelsRmw(const ExecutionAnalysis &A, AxiomMask);
} // namespace terms

/// WeakIsol (§3.3): acyclic(weaklift(com, stxn)).
bool holdsWeakIsolation(const ExecutionAnalysis &A);
/// StrongIsol (§3.3): acyclic(stronglift(com, stxn)).
bool holdsStrongIsolation(const ExecutionAnalysis &A);
/// StrongIsol restricted to atomic transactions (Theorem 7.2's conclusion).
bool holdsStrongIsolationAtomic(const ExecutionAnalysis &A);

} // namespace tmw

#endif // TMW_MODELS_MEMORYMODEL_H
