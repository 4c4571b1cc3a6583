//===- EvalPlan.cpp - Cross-spec evaluation plans ------------------------------==//
///
/// Plan compilation: hash-cons the specs' checked axioms into an
/// obligation pool by the Axiom::Salt term-identity rule, derive the
/// implication edges (structural subsets, ablation lattices, the pinned
/// cross-arch hierarchy), and transitively close them; evaluation walks
/// specs cheapest-first through one per-candidate obligation cache.
///
//===----------------------------------------------------------------------===//

#include "models/EvalPlan.h"

#include "hw/ImplModel.h"
#include "lint/Lint.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace tmw;

namespace {

/// The guard term of the SC => hardware-baseline hierarchy edges: the
/// pinned implication (`ScImpliesHardwareBaselines`) covers RMW-free
/// executions only. Vocabulary footprint {Rmw}: the relation is the RMW
/// pairing itself, empty on RMW-free executions.
Relation rmwGuard(const ExecutionAnalysis &A, AxiomMask) { return A.rmw(); }

/// a ⊆ b over sorted unique id vectors.
bool subsetOf(const std::vector<uint32_t> &A, const std::vector<uint32_t> &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

/// Identical axiom tables, entry for entry (same term functions, kinds,
/// flags, salts, footprints, names). Static arch tables compare equal
/// trivially; per-instance `ImplModel` tables compare by content, so two
/// wrappers of the same arch and preset count as one family.
bool sameTable(const MemoryModel &A, const MemoryModel &B) {
  AxiomList X = A.axioms(), Y = B.axioms();
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I < X.size(); ++I)
    if (X[I].Term != Y[I].Term || X[I].Kind != Y[I].Kind ||
        X[I].Tm != Y[I].Tm || X[I].Modifier != Y[I].Modifier ||
        X[I].Salt != Y[I].Salt || X[I].Footprint != Y[I].Footprint ||
        X[I].Name != Y[I].Name)
      return false;
  return true;
}

/// mask(A) ⊆ mask(B) over the table's axiom count.
bool maskSubsetOf(AxiomMask A, AxiomMask B, size_t NumAxioms) {
  unsigned N = static_cast<unsigned>(NumAxioms);
  return (A.normalized(N).bits() & ~B.normalized(N).bits()) == 0;
}

} // namespace

ObligationKey tmw::obligationKey(Relation (*Term)(const ExecutionAnalysis &,
                                                  AxiomMask),
                                 AxiomKind Kind, AxiomMask Mask,
                                 uint32_t Salt) {
  return {reinterpret_cast<uintptr_t>(Term), static_cast<uint8_t>(Kind),
          Mask.bits() & Salt};
}

EvalPlan EvalPlan::compile(std::span<const MemoryModel *const> Models) {
  EvalPlan P;
  size_t N = Models.size();

  // --- Obligation pool: hash-cons (term fn, kind, salt-relevant mask
  // bits). The stored representative mask is the first contributor's full
  // mask — by the salt contract any agreeing mask denotes the same term.
  // Footprints union across contributors: a vocabulary disjoint from the
  // union is disjoint from every contributor's declaration, so each
  // contributor's emptiness contract applies (intersection would not be
  // sound).
  std::map<ObligationKey, uint32_t> Pool;
  auto intern = [&](Relation (*Term)(const ExecutionAnalysis &, AxiomMask),
                    AxiomKind Kind, AxiomMask Mask, uint32_t Salt,
                    uint32_t Footprint) {
    auto [It, New] = Pool.emplace(obligationKey(Term, Kind, Mask, Salt),
                                  static_cast<uint32_t>(P.Obls.size()));
    if (New)
      P.Obls.push_back({Term, Kind, Mask, Footprint});
    else
      P.Obls[It->second].Footprint |= Footprint;
    return It->second;
  };
  auto compileSpec = [&](const MemoryModel &M) {
    SpecPlan S;
    AxiomList Axs = M.axioms();
    AxiomMask Mask = M.axiomMask();
    for (unsigned I = 0; I < Axs.size(); ++I) {
      const Axiom &Ax = Axs[I];
      if (Ax.Modifier || !Mask.test(I))
        continue;
      S.Obls.push_back(intern(Ax.Term, Ax.Kind, Mask, Ax.Salt,
                              Ax.Footprint));
    }
    return S;
  };

  P.Specs.reserve(N);
  for (const MemoryModel *M : Models)
    P.Specs.push_back(compileSpec(*M));

  std::vector<std::vector<uint32_t>> Set(N);
  for (size_t I = 0; I < N; ++I) {
    Set[I] = P.Specs[I].Obls;
    std::sort(Set[I].begin(), Set[I].end());
    Set[I].erase(std::unique(Set[I].begin(), Set[I].end()), Set[I].end());
  }

  // --- Reference spec points of the pinned hierarchy
  // (tests/model_hierarchy_test.cpp), interned through the same pool so
  // their obligation ids are comparable with the specs'. Entries only
  // they contribute are never evaluated.
  ScModel Sc;
  TscModel Tsc;
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  std::unique_ptr<MemoryModel> X86Base =
      ModelRegistry::parse("x86/+baseline");
  std::unique_ptr<MemoryModel> PowerBase =
      ModelRegistry::parse("power/+baseline");
  std::unique_ptr<MemoryModel> Armv8Base =
      ModelRegistry::parse("armv8/+baseline");
  auto refSet = [&](const MemoryModel &M) {
    std::vector<uint32_t> V = compileSpec(M).Obls;
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    return V;
  };
  std::vector<uint32_t> RefSc = refSet(Sc), RefTsc = refSet(Tsc),
                        RefX86 = refSet(X86), RefPower = refSet(Power),
                        RefArmv8 = refSet(Armv8),
                        RefX86Base = refSet(*X86Base),
                        RefPowerBase = refSet(*PowerBase),
                        RefArmv8Base = refSet(*Armv8Base);

  // Guard obligations (all salt-0 terms, so they collapse with any spec
  // that already checks them as axioms). Footprints match the tables'
  // declarations for the shared terms, so the union stays narrow and a
  // specialized plan decides the guards once per program.
  uint32_t GRmwIsol = intern(terms::rmwIsolation, AxiomKind::Empty,
                             AxiomMask::all(), 0, vocab::Rmw);
  uint32_t GTxnCancel = intern(terms::txnCancelsRmw, AxiomKind::Empty,
                               AxiomMask::all(), 0, vocab::Txn);
  uint32_t GRmwFree =
      intern(rmwGuard, AxiomKind::Empty, AxiomMask::all(), 0, vocab::Rmw);

  // --- Obligation dominance: `acyclic(po u com)` — SC/TSC's Order, the
  // sole entry of RefSc — implies `acyclic(po u rf)`, the implementation
  // wrappers' NoLoadBuffering axiom (rf ⊆ com, acyclicity is antitone;
  // both terms ignore their mask). A source that checks the former
  // therefore covers the latter for free, which is what lets SC/TSC sit
  // above the `power8`/`armv8-rtl`/`*-impl` wrappers and not just the
  // bare architecture models.
  ImplModel RefImpl = ImplModel::power8();
  const Axiom &NoLbAx = RefImpl.axioms().back();
  uint32_t OScHb = RefSc.front();
  uint32_t ONoLb = intern(NoLbAx.Term, NoLbAx.Kind, AxiomMask::all(),
                          NoLbAx.Salt, NoLbAx.Footprint);
  auto augment = [&](std::vector<uint32_t> V) {
    // The obligations spec/reference-set V covers beyond its own list.
    if (std::binary_search(V.begin(), V.end(), OScHb) &&
        !std::binary_search(V.begin(), V.end(), ONoLb)) {
      V.push_back(ONoLb);
      std::sort(V.begin(), V.end());
    }
    return V;
  };
  std::vector<std::vector<uint32_t>> Covered(N);
  for (size_t I = 0; I < N; ++I)
    Covered[I] = augment(Set[I]);
  // Hierarchy targets as seen from an SC/TSC source: every such source
  // checks `acyclic(po u com)` (it is an obligation superset of RefSc),
  // so a target may additionally carry the dominated NoLB axiom — added
  // unconditionally here because these sets are only consulted for edges
  // whose source passed the SrcTsc/SrcSc superset test.
  auto withNoLb = [&](std::vector<uint32_t> V) {
    V.push_back(ONoLb);
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    return V;
  };
  std::vector<uint32_t> RefX86D = withNoLb(RefX86),
                        RefPowerD = withNoLb(RefPower),
                        RefArmv8D = withNoLb(RefArmv8),
                        RefX86BaseD = withNoLb(RefX86Base),
                        RefPowerBaseD = withNoLb(RefPowerBase),
                        RefArmv8BaseD = withNoLb(RefArmv8Base);

  // --- Direct edges. Guard[i][j] holds the best-known (fewest-guard)
  // derivation of `consistent(i) => consistent(j)`.
  std::vector<std::vector<int>> Has(N, std::vector<int>(N, 0));
  std::vector<std::vector<std::vector<uint32_t>>> Guard(
      N, std::vector<std::vector<uint32_t>>(N));
  auto addEdge = [&](size_t I, size_t J, std::vector<uint32_t> G) {
    std::sort(G.begin(), G.end());
    G.erase(std::unique(G.begin(), G.end()), G.end());
    if (!Has[I][J] || G.size() < Guard[I][J].size()) {
      Has[I][J] = 1;
      Guard[I][J] = std::move(G);
    }
  };
  /// Spec \p J's consistency is implied by \p Ref's: either J's
  /// obligations are a subset of Ref's (structural against the reference
  /// point), or J shares Ref's table with a sub-mask (ablation lattice:
  /// modifier bits only add edges to monotone terms, checked bits only
  /// add obligations, so a sub-mask is a weaker model).
  auto weakerThan = [&](size_t J, const MemoryModel &Ref,
                        const std::vector<uint32_t> &RefSet) {
    return subsetOf(Set[J], RefSet) ||
           (sameTable(*Models[J], Ref) &&
            maskSubsetOf(Models[J]->axiomMask(), Ref.axiomMask(),
                         Ref.axioms().size()));
  };

  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      // Structural: obligations(J) ⊆ covered(I) — propositional over the
      // obligation sets, plus the NoLB dominance (so `sc => sc-impl`).
      if (subsetOf(Set[J], Covered[I]))
        addEdge(I, J, {});
      // Ablation lattice within one table family.
      if (sameTable(*Models[I], *Models[J]) &&
          maskSubsetOf(Models[J]->axiomMask(), Models[I]->axiomMask(),
                       Models[I]->axioms().size()))
        addEdge(I, J, {});
      // The cross-arch hierarchy (pinned by model_hierarchy_test).
      // Sources must be at least as strong as the reference point
      // (obligation superset). Only the *maximal* sources are usable
      // here: SC/TSC's scHb is po u com, so their consistency bounds any
      // term contained in (po u com)+ on EVERY execution. The test's
      // x86 => ARMv8 inclusion is deliberately NOT an edge — it is
      // pinned over x86's own vocabulary only, and the engine evaluates
      // arbitrary programs where x86 is blind to foreign fences (a DMB
      // orders ARMv8 but not x86, so x86-consistent does not bound
      // ARMv8 there).
      bool SrcTsc = subsetOf(RefTsc, Set[I]);
      bool SrcSc = subsetOf(RefSc, Set[I]);
      if (SrcTsc &&
          (weakerThan(J, X86, RefX86D) || weakerThan(J, Power, RefPowerD) ||
           weakerThan(J, Armv8, RefArmv8D)))
        addEdge(I, J, {GRmwIsol, GTxnCancel});
      if (SrcSc && (weakerThan(J, *X86Base, RefX86BaseD) ||
                    weakerThan(J, *PowerBase, RefPowerBaseD) ||
                    weakerThan(J, *Armv8Base, RefArmv8BaseD)))
        addEdge(I, J, {GRmwFree});
    }

  // --- Transitive closure, guard sets unioning along paths (a shorter
  // guard set replaces a longer one; guard counts only shrink, so the
  // iteration terminates).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t K = 0; K < N; ++K)
      for (size_t I = 0; I < N; ++I) {
        if (I == K || !Has[I][K])
          continue;
        for (size_t J = 0; J < N; ++J) {
          if (J == I || J == K || !Has[K][J])
            continue;
          std::vector<uint32_t> G = Guard[I][K];
          G.insert(G.end(), Guard[K][J].begin(), Guard[K][J].end());
          std::sort(G.begin(), G.end());
          G.erase(std::unique(G.begin(), G.end()), G.end());
          if (!Has[I][J] || G.size() < Guard[I][J].size()) {
            Has[I][J] = 1;
            Guard[I][J] = std::move(G);
            Changed = true;
          }
        }
      }
  }

  P.Fwd.assign(N, {});
  P.Bwd.assign(N, {});
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (Has[I][J]) {
        uint32_t E = static_cast<uint32_t>(P.Implications.size());
        P.Implications.push_back({static_cast<uint32_t>(I),
                                  static_cast<uint32_t>(J),
                                  std::move(Guard[I][J])});
        P.Fwd[I].push_back(E);
        P.Bwd[J].push_back(E);
      }

  // --- Evaluation order: fewest obligations first (stable by index), so
  // the cheap strong specs (SC, TSC) decide before the hardware models
  // they can short-circuit.
  P.Order.resize(N);
  for (size_t I = 0; I < N; ++I)
    P.Order[I] = static_cast<uint32_t>(I);
  std::stable_sort(P.Order.begin(), P.Order.end(),
                   [&](uint32_t A, uint32_t B) {
                     return P.Specs[A].Obls.size() < P.Specs[B].Obls.size();
                   });
  return P;
}

bool EvalPlan::implies(size_t I, size_t J) const {
  for (uint32_t E : Fwd[I])
    if (Implications[E].To == J)
      return true;
  return false;
}

EvalPlan::Scratch EvalPlan::makeScratch() const {
  Scratch S;
  S.Obl.assign(Obls.size(), int8_t(-1));
  S.Spec.assign(Specs.size(), int8_t(-1));
  return S;
}

EvalPlan::Specialization EvalPlan::specialize(uint32_t Vocabulary) const {
  Specialization Sp;
  Sp.Obl.assign(Obls.size(), int8_t(-1));
  for (size_t O = 0; O < Obls.size(); ++O)
    if ((Obls[O].Footprint & Vocabulary) == 0) {
      // Footprint disjoint from everything the program can speak: the
      // term is empty on every candidate (the audited Axiom::Footprint
      // contract), and an empty relation is acyclic, irreflexive, and
      // empty — the obligation holds vacuously.
      Sp.Obl[O] = 1;
      ++Sp.Discharged;
    }
  return Sp;
}

EvalPlan::Specialization EvalPlan::specialize(const ProgramFacts &Facts) const {
  return specialize(Facts.Vocabulary);
}

bool EvalPlan::obligationHolds(uint32_t O, const ExecutionAnalysis &A,
                               Scratch &S) const {
  int8_t &V = S.Obl[O];
  if (V != -1) {
    ++S.C.TermHits;
    return V == 1;
  }
  ++S.C.TermEvals;
  const Obligation &Ob = Obls[O];
  V = axiomHolds(Ob.Kind, Ob.Term(A, Ob.Mask)) ? 1 : 0;
  return V == 1;
}

bool EvalPlan::guardsHold(const Edge &E, const ExecutionAnalysis &A,
                          Scratch &S) const {
  for (uint32_t G : E.Guards)
    if (!obligationHolds(G, A, S))
      return false;
  return true;
}

void EvalPlan::evaluate(const ExecutionAnalysis &A, Scratch &S,
                        const Specialization *Sp) const {
  if (Sp) {
    // Refill from the per-program verdict template instead of the
    // all-unknown reset: pre-discharged obligations read as cached
    // vacuous verdicts for every candidate of this program.
    assert(Sp->Obl.size() == S.Obl.size() &&
           "specialization from a different plan");
    std::copy(Sp->Obl.begin(), Sp->Obl.end(), S.Obl.begin());
    S.C.Discharged += Sp->Discharged;
  } else {
    std::fill(S.Obl.begin(), S.Obl.end(), int8_t(-1));
  }
  std::fill(S.Spec.begin(), S.Spec.end(), int8_t(-1));
  ++S.C.Candidates;
  for (uint32_t Sp : Order) {
    if (S.Spec[Sp] != -1)
      continue;
    ++S.C.SpecEvals;
    int8_t V = 1;
    for (uint32_t O : Specs[Sp].Obls)
      if (!obligationHolds(O, A, S)) {
        V = 0;
        break;
      }
    S.Spec[Sp] = V;
    // One propagation level suffices: the edge set is transitively
    // closed, and implications only chain from a single decided source
    // (forward from consistent, contrapositive from inconsistent).
    if (V == 1) {
      for (uint32_t E : Fwd[Sp]) {
        const Edge &Ed = Implications[E];
        if (S.Spec[Ed.To] == -1 && guardsHold(Ed, A, S)) {
          S.Spec[Ed.To] = 1;
          ++S.C.SpecShortCircuits;
        }
      }
    } else {
      for (uint32_t E : Bwd[Sp]) {
        const Edge &Ed = Implications[E];
        if (S.Spec[Ed.From] == -1 && guardsHold(Ed, A, S)) {
          S.Spec[Ed.From] = 0;
          ++S.C.SpecShortCircuits;
        }
      }
    }
  }
}
