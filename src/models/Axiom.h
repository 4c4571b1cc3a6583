//===- Axiom.h - Declarative consistency axioms -----------------*- C++ -*-==//
///
/// \file
/// First-class axioms, in the style of Alglave et al.'s `cat` language
/// (*Herding Cats*, TOPLAS 2014): every memory model in this library is a
/// list of named `acyclic` / `irreflexive` / `empty` constraints over
/// relational terms derived from one execution. A concrete model exposes
/// its list via `MemoryModel::axioms()`; one generic engine evaluates the
/// enabled axioms, so ablation, diagnostics, and model selection are
/// uniform across all six models instead of six hand-written `check()`
/// bodies.
///
/// Two kinds of entries appear in an axiom table:
///
///  * *checked* axioms — the engine evaluates `Kind` over `Term` and the
///    model is consistent when every enabled one holds;
///  * *modifier* axioms (`Modifier = true`) — named toggles whose term is
///    injected into *other* axioms' compound relations (e.g. the implicit
///    transaction fences `tfence` strengthen an architecture's
///    happens-before). The engine never fails a modifier on its own; the
///    toggle's effect is that compound terms consult the `AxiomMask`.
///
/// Axiom names are string literals with static storage duration: every
/// `std::string_view` handed out by the check engine (including
/// `ConsistencyResult::FailedAxiom`) points into these tables and stays
/// valid for the lifetime of the program. Names are also NUL-terminated,
/// so `Name.data()` is safe to pass to C-style formatting.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_AXIOM_H
#define TMW_MODELS_AXIOM_H

#include "execution/Event.h"
#include "relation/Relation.h"

#include <cassert>
#include <span>
#include <string_view>

namespace tmw {

class ExecutionAnalysis;

/// Vocabulary classes: the program features an axiom term can observe.
///
/// A program (and by extension every candidate execution enumerated from
/// it) *speaks* a subset of these classes; an axiom declares in
/// `Axiom::Footprint` which classes its term can read. The contract is
/// emptiness: for every execution whose vocabulary is disjoint from the
/// declared footprint, the term's relation is empty — so the obligation's
/// verdict is the vacuous one (an empty relation is acyclic, irreflexive,
/// and empty) and a specialized evaluation plan may discharge it once per
/// program instead of evaluating it per candidate (EvalPlan::specialize).
///
/// `Base` is set in every execution's vocabulary, which makes the default
/// footprint `~0u` never-disjoint and therefore always safe.
namespace vocab {
/// Always present: plain program order / reads / writes. Any footprint
/// containing Base is never disjoint from a program's vocabulary.
inline constexpr uint32_t Base = 1u << 0;
/// Successful transactions (stxn non-trivial: some TxBegin executed).
inline constexpr uint32_t Txn = 1u << 1;
/// RMW pairs (paired exclusive load/store).
inline constexpr uint32_t Rmw = 1u << 2;
/// Lock / critical-region method calls (Lock, Unlock, TxLock, TxUnlock).
inline constexpr uint32_t Lock = 1u << 3;
/// C++ atomic accesses (MemOrder != NonAtomic).
inline constexpr uint32_t Atomic = 1u << 4;

/// One bit per architecture fence flavour (FenceKind::MFence..CppFence).
constexpr uint32_t fence(FenceKind K) {
  assert(K != FenceKind::None && "FenceKind::None has no vocabulary bit");
  return 1u << (4 + static_cast<unsigned>(K));
}
} // namespace vocab

/// The constraint form of a checked axiom (the three judgement forms of
/// the cat framework).
enum class AxiomKind : uint8_t {
  Acyclic,     ///< `acyclic term`: no cycle (of length >= 1).
  Irreflexive, ///< `irreflexive term`: no (e, e) pair.
  Empty,       ///< `empty term`: no pair at all.
};

/// Which axioms of one model's `axioms()` list are enabled. Bit `I`
/// corresponds to index `I` in the list; the default mask enables
/// everything, so a mask is meaningful without knowing the list length.
class AxiomMask {
public:
  constexpr AxiomMask() = default;

  /// All axioms enabled (the default model).
  static constexpr AxiomMask all() { return AxiomMask(); }
  /// No axiom enabled.
  static constexpr AxiomMask none() { return AxiomMask(0); }

  // Shifting a 32-bit word by >= 32 is undefined behaviour, so an
  // out-of-range axiom index would not merely misbehave — it could
  // silently corrupt the whole mask. Axiom tables are capped at 32
  // entries by construction; assert the cap here instead of relying on
  // every caller.
  constexpr bool test(unsigned I) const {
    assert(I < 32 && "axiom index out of the 32-bit mask");
    return (Bits >> I) & 1;
  }
  constexpr AxiomMask &set(unsigned I, bool On = true) {
    assert(I < 32 && "axiom index out of the 32-bit mask");
    if (On)
      Bits |= uint32_t(1) << I;
    else
      Bits &= ~(uint32_t(1) << I);
    return *this;
  }

  /// Raw bits — used as the memoization salt for mask-dependent terms.
  constexpr uint32_t bits() const { return Bits; }

  /// The mask with bits at and above \p NumAxioms cleared, so that masks
  /// over the same axiom list compare equal iff they enable the same
  /// axioms (the default mask has all 32 bits set).
  constexpr AxiomMask normalized(unsigned NumAxioms) const {
    uint32_t Keep = NumAxioms >= 32 ? ~uint32_t(0)
                                    : ((uint32_t(1) << NumAxioms) - 1);
    return AxiomMask(Bits & Keep);
  }

  constexpr bool operator==(const AxiomMask &O) const = default;

private:
  constexpr explicit AxiomMask(uint32_t Bits) : Bits(Bits) {}
  uint32_t Bits = ~uint32_t(0);
};

/// One named axiom of a model: a constraint kind over a relational term.
///
/// Terms receive the model's enabled-axiom mask so that compound relations
/// can consult the modifier toggles (indices are the term's own model's
/// table positions). Term functions are stateless function pointers —
/// axiom tables are static, shared by every instance of a model, and the
/// names they intern outlive every `ConsistencyResult`.
struct Axiom {
  /// Interned name (a NUL-terminated literal in the model's static table).
  std::string_view Name;
  AxiomKind Kind;
  /// The relational term the constraint is phrased over.
  Relation (*Term)(const ExecutionAnalysis &A, AxiomMask Enabled);
  /// Part of the TM extension: disabled by the baseline mask (the
  /// non-transactional model used when synthesising Forbid suites).
  bool Tm = false;
  /// Contributes its term to other axioms' compound relations instead of
  /// being checked on its own (see file comment).
  bool Modifier = false;
  /// The mask bits `Term` reads (directly or through sub-terms): two
  /// invocations whose masks agree on these bits return the same relation.
  /// This is the *term identity* contract the cross-spec evaluation plan
  /// (models/EvalPlan.h) hash-conses on — `(Term, Mask.bits() & Salt)`
  /// keys one obligation shared by every spec that needs it — and it must
  /// be a superset of every memoization salt the term passes to
  /// `ExecutionAnalysis::memoTerm`. The default claims dependence on the
  /// whole mask, which is always safe and merely forfeits sharing; tables
  /// annotate the real footprint explicitly.
  ///
  /// Salts are *machine-checked*: the contract auditor
  /// (audit/ContractAudit.h, CLI `tmw_audit`, tests/audit_test.cpp)
  /// differentially verifies every table entry against probe executions —
  /// flipping each bit outside the salt must not change the term, the
  /// memoTerm salts must keep a shared memoized arena coherent, and
  /// transaction-dependence must survive `invalidateTransactionalState()`
  /// honestly. Run `tmw_audit` after touching any term or salt; CI fails
  /// on soundness findings.
  uint32_t Salt = ~uint32_t(0);
  /// The vocabulary classes (namespace `vocab`) this term can read: on any
  /// execution whose vocabulary is disjoint from `Footprint`, the term's
  /// relation must be *empty*. The specialized evaluation plan
  /// (EvalPlan::specialize) uses this to discharge obligations to their
  /// vacuous verdict once per program, so an under-declared footprint is a
  /// soundness bug — it would silently change verdicts.
  ///
  /// The rule: the default `Footprint = ~0u` is always safe (it contains
  /// `vocab::Base`, which every execution speaks, so such an obligation is
  /// never discharged); narrow only what the auditor proves. Like `Salt`,
  /// footprints are machine-checked — `tmw_audit`'s fourth differential
  /// pass evaluates every term on vocabulary-enumerated probes and flags
  /// any non-empty relation on a footprint-disjoint execution as a
  /// CI-fatal soundness finding. Beware lifted terms: `stronglift(r, t)`
  /// degenerates to `r` (not the empty relation) when `t` is empty, so
  /// strong-isolation-style terms must keep the full footprint.
  uint32_t Footprint = ~uint32_t(0);
};

/// A model's axiom list: a view of its static table.
using AxiomList = std::span<const Axiom>;

/// Index of the axiom named \p Name in \p Axioms, or -1. Exact match.
int findAxiom(AxiomList Axioms, std::string_view Name);

/// Evaluate one constraint kind over a term relation — the judgement the
/// generic check engine and the cross-spec evaluation plan share.
bool axiomHolds(AxiomKind K, const Relation &Term);

/// The baseline mask over \p Axioms: every TM axiom disabled.
AxiomMask baselineMask(AxiomList Axioms);

} // namespace tmw

#endif // TMW_MODELS_AXIOM_H
