//===- EvalPlan.h - Cross-spec evaluation plans -----------------*- C++ -*-==//
///
/// \file
/// One evaluation plan for a whole *set* of resolved model specs — the
/// herd7-style generic-engine discipline ("Herding Cats", TOPLAS 2014)
/// applied across specs instead of within one: where `MemoryModel::check`
/// evaluates each spec's axiom list independently, a plan compiles the
/// union of the specs' axiom term DAGs so that per candidate
///
///  * every *obligation* — a `(term, kind)` judgement such as
///    `acyclic(hb)` — is evaluated **at most once** and its verdict handed
///    to every spec that needs it. Obligations are hash-consed by the
///    term-identity rule of Axiom.h: two table entries denote the same
///    obligation iff they reference the same term function, the same
///    constraint kind, and masks that agree on the term's declared `Salt`
///    bits. Shared `terms::*` functions (coherence, RMW isolation, ...)
///    therefore collapse across architectures, and ablation lattices over
///    one model collapse wherever the ablated bits are salt-irrelevant;
///
///  * *subsumption* edges between specs short-circuit whole verdicts.
///    Three sources, each either exact or pinned by
///    tests/model_hierarchy_test.cpp:
///      - structural: if spec j's obligation set is a subset of spec i's,
///        then i-consistent implies j-consistent (and j-inconsistent
///        implies i-inconsistent) — propositional, always sound. One
///        obligation-dominance rule widens "subset": a spec that checks
///        `acyclic(po u com)` (SC/TSC's Order) also covers the impl
///        wrappers' NoLoadBuffering `acyclic(po u rf)`, since rf ⊆ com
///        and acyclicity is antitone — so SC/TSC sit above `sc-impl`,
///        `power8`, `armv8-rtl`, not just the bare architecture models;
///      - ablation lattice: same axiom table and mask(j) a subset of
///        mask(i) implies the same — sound because every modifier bit
///        only *adds* edges to the compound terms (monotone terms) and
///        acyclic/irreflexive/empty are antitone in the relation;
///      - hierarchy: the paper's cross-arch bounds with *maximal*
///        sources (TSC above the hardware TM models guarded by
///        RMW-isolation and boundary-straddling-RMW emptiness; SC above
///        the hardware baselines for RMW-free executions). SC/TSC's
///        happens-before is all of po u com, so their consistency bounds
///        any weaker model on every execution; bounds between two
///        hardware models (the test's x86 => ARMv8) are pinned only over
///        the source's own vocabulary and are deliberately NOT edges —
///        x86 is blind to a DMB that orders ARMv8. Guards are themselves
///        obligations, evaluated through the same per-candidate cache.
///    Edges are transitively closed at compile time (guard sets union
///    along a path), and both directions are used at evaluation time:
///    forward from a consistent source, contrapositive from an
///    inconsistent target.
///
/// Verdict contract: `evaluate` produces exactly the per-spec booleans of
/// `Models[i]->consistent(A)` — subsumption replaces *computation*, never
/// the answer — so planned and independent evaluation are verdict- and
/// byte-identical downstream (pinned by tests/eval_plan_test.cpp and the
/// CI corpus cmp). Diagnostics (`checkAll`, witnesses) stay on the
/// per-model path; a plan answers only the consistency question.
///
/// Threading: a compiled plan is immutable and shared freely across
/// workers; all mutable state lives in a per-worker `Scratch`. Terms are
/// evaluated against the caller's `ExecutionAnalysis` arena, so the
/// one-spec path and its memoization discipline are untouched.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_EVALPLAN_H
#define TMW_MODELS_EVALPLAN_H

#include "models/MemoryModel.h"

#include <cstdint>
#include <span>
#include <vector>

namespace tmw {

struct ProgramFacts;

/// The term-identity key of one obligation: its term function, its
/// constraint kind and the mask bits under the term's declared `Salt`
/// (Axiom.h). Two entries with equal keys denote the same judgement on
/// every execution. `EvalPlan::compile` hash-conses its pool by this key,
/// and the Forbid search (synth/Conformance.h) matches a TM model's
/// obligations against its baseline's by it.
struct ObligationKey {
  uintptr_t Term = 0;
  uint8_t Kind = 0;
  uint32_t Bits = 0;
  auto operator<=>(const ObligationKey &) const = default;
};

ObligationKey obligationKey(Relation (*Term)(const ExecutionAnalysis &,
                                             AxiomMask),
                            AxiomKind Kind, AxiomMask Mask, uint32_t Salt);

/// The key of table entry \p Ax checked under the model mask \p Mask.
inline ObligationKey obligationKey(const Axiom &Ax, AxiomMask Mask) {
  return obligationKey(Ax.Term, Ax.Kind, Mask, Ax.Salt);
}

/// A compiled cross-spec evaluation plan (see file comment).
class EvalPlan {
public:
  /// Lifetime accounting of one Scratch (accumulated across candidates).
  struct Counters {
    /// Candidates evaluated.
    uint64_t Candidates = 0;
    /// Obligations computed / served from the per-candidate verdict cache
    /// (a "hit" is a judgement some other spec — or an earlier axiom of
    /// the same spec — already paid for this candidate).
    uint64_t TermEvals = 0, TermHits = 0;
    /// Specs evaluated through their obligation lists / decided by a
    /// subsumption edge without touching their obligations.
    uint64_t SpecEvals = 0, SpecShortCircuits = 0;
    /// Obligation verdicts pre-decided by a `Specialization` (summed over
    /// candidates): term evaluations the footprint contract saved.
    uint64_t Discharged = 0;
  };

  /// One implication edge: `consistent(From) and all Guards hold` implies
  /// `consistent(To)` (contrapositive: `inconsistent(To)` and the guards
  /// imply `inconsistent(From)`). Guards index the obligation pool.
  struct Edge {
    uint32_t From = 0, To = 0;
    std::vector<uint32_t> Guards;
  };

  /// Per-worker evaluation state: one verdict slot per obligation and per
  /// spec, reset per candidate; counters accumulate across candidates.
  class Scratch {
  public:
    /// Spec \p I's verdict for the last evaluated candidate.
    bool consistent(size_t I) const { return Spec[I] == 1; }
    const Counters &counters() const { return C; }

  private:
    friend class EvalPlan;
    std::vector<int8_t> Obl;  ///< -1 unknown, 0 fails, 1 holds.
    std::vector<int8_t> Spec; ///< -1 unknown, 0 inconsistent, 1 consistent.
    Counters C;
  };

  /// A per-program specialization of a plan: the verdict template seeded
  /// into every candidate's Scratch. Obligations whose declared vocabulary
  /// footprint (Axiom::Footprint) is disjoint from the program's
  /// vocabulary are pre-decided to their vacuous verdict — by the audited
  /// footprint contract their term relation is empty on every candidate
  /// the program can produce, and an empty relation satisfies all three
  /// constraint kinds. This covers the hierarchy-edge guards too (they
  /// are pool obligations), so e.g. the RMW-freedom guard of the
  /// SC => hardware-baseline edges is decided once per program instead of
  /// once per candidate. Verdict-neutral by construction: the pre-decided
  /// value is exactly what evaluation would have computed.
  class Specialization {
  public:
    /// Obligations pre-decided per candidate.
    uint64_t discharged() const { return Discharged; }

  private:
    friend class EvalPlan;
    std::vector<int8_t> Obl; ///< 1 pre-discharged, -1 evaluate on demand.
    uint64_t Discharged = 0;
  };

  EvalPlan() = default;

  /// Compile a plan over \p Models (borrowed for the duration of the call
  /// only; the plan is self-contained). Spec index i in the plan is
  /// `Models[i]`.
  static EvalPlan compile(std::span<const MemoryModel *const> Models);

  /// Specialize this plan to a program speaking \p Vocabulary (a bitset
  /// over `vocab::` classes; see models/Axiom.h). The result is tied to
  /// this plan instance and is immutable — share it freely across workers.
  Specialization specialize(uint32_t Vocabulary) const;
  /// Convenience overload over the lint pass's static program facts.
  Specialization specialize(const ProgramFacts &Facts) const;

  size_t numSpecs() const { return Specs.size(); }
  /// Pool size, including guard obligations and reference entries used
  /// only for hierarchy matching (never evaluated).
  size_t numObligations() const { return Obls.size(); }
  /// The obligation ids of spec \p I, in its axiom-table order.
  std::span<const uint32_t> specObligations(size_t I) const {
    return Specs[I].Obls;
  }
  /// Every implication edge of the plan (transitively closed).
  std::span<const Edge> edges() const { return Implications; }
  /// True when the plan carries the edge i implies j.
  bool implies(size_t I, size_t J) const;

  Scratch makeScratch() const;

  /// Evaluate every spec over \p A into \p S: afterwards
  /// `S.consistent(i) == Models[i]->consistent(A)` for every i.
  /// \p Sp, when non-null, must come from this plan's `specialize`; its
  /// pre-decided verdicts seed the obligation cache instead of the
  /// all-unknown reset, which never changes any verdict (see
  /// `Specialization`).
  void evaluate(const ExecutionAnalysis &A, Scratch &S,
                const Specialization *Sp = nullptr) const;

private:
  struct Obligation {
    Relation (*Term)(const ExecutionAnalysis &, AxiomMask);
    AxiomKind Kind;
    /// Representative full mask (any mask agreeing on the term's salt
    /// bits yields the same relation — the Axiom::Salt contract).
    AxiomMask Mask;
    /// Union of the declared `Axiom::Footprint`s of every table entry
    /// hash-consed into this obligation (union keeps the emptiness
    /// contract sound for all contributors).
    uint32_t Footprint = ~uint32_t(0);
  };
  struct SpecPlan {
    std::vector<uint32_t> Obls;
  };

  bool guardsHold(const Edge &E, const ExecutionAnalysis &A,
                  Scratch &S) const;
  bool obligationHolds(uint32_t O, const ExecutionAnalysis &A,
                       Scratch &S) const;

  std::vector<Obligation> Obls;
  std::vector<SpecPlan> Specs;
  /// Evaluation order: ascending obligation count (stable by index), so
  /// cheap strong specs decide first and seed the most propagation.
  std::vector<uint32_t> Order;
  std::vector<Edge> Implications;
  /// Edge indices grouped by source (forward propagation) and by target
  /// (contrapositive propagation).
  std::vector<std::vector<uint32_t>> Fwd, Bwd;
};

} // namespace tmw

#endif // TMW_MODELS_EVALPLAN_H
