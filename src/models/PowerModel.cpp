//===- PowerModel.cpp - Power with transactions ------------------------------==//

#include "models/PowerModel.h"

using namespace tmw;

namespace {

/// Indices into `PowerAxioms` (= `AxiomMask` bit positions).
enum : unsigned { kCoherence, kRMWIsol, kTfence, kThb, kOrder, kTProp1,
                  kTProp2, kPropagation, kObservation, kStrongIsol,
                  kTxnOrder, kTxnCancelsRMW };

/// memoTerm tags and per-term salts (the mask bits each term reads).
constexpr char PpoTag = 0, FenceTag = 0, HbTag = 0, HbStarTag = 0,
               PropTag = 0;
constexpr uint32_t kFenceSalt = 1u << kTfence;
constexpr uint32_t kHbSalt = (1u << kTfence) | (1u << kThb);
constexpr uint32_t kPropSalt =
    kHbSalt | (1u << kTProp1) | (1u << kTProp2);

/// ppo: the ii/ic/ci/cc least fixpoint. Transaction-independent, so one
/// computation serves every placement over a base execution.
const Relation &ppo(const ExecutionAnalysis &A) {
  return A.memoTerm(&PpoTag, 0, /*TxnDependent=*/false, [&] {
    unsigned N = A.size();
    EventSet R = A.reads(), W = A.writes();

    Relation Dd = A.addr() | A.data();
    const Relation &PoLoc = A.poLoc();
    // Read-different-writes and detour shapes (same-location refinements).
    Relation Rdw = PoLoc & A.fre().compose(A.rfe());
    Relation Detour = PoLoc & A.coe().compose(A.rfe());
    // ctrl+isync: control dependency with an isync before the target.
    Relation CtrlIsync = A.ctrl() & A.fenceRel(FenceKind::ISync);

    Relation Ii0 = Dd | A.rfi() | Rdw;
    Relation Ci0 = CtrlIsync | Detour;
    Relation Ic0(N);
    Relation Cc0 = Dd | PoLoc | A.ctrl() | A.addr().compose(A.po());

    // Least fixpoint of the mutually recursive ii/ci/ic/cc definitions.
    Relation Ii = Ii0, Ci = Ci0, Ic = Ic0, Cc = Cc0;
    for (;;) {
      Relation NewIi = Ii0 | Ci | Ic.compose(Ci) | Ii.compose(Ii);
      Relation NewCi = Ci0 | Ci.compose(Ii) | Cc.compose(Ci);
      Relation NewIc = Ic0 | Ii | Cc | Ic.compose(Cc) | Ii.compose(Ic);
      Relation NewCc = Cc0 | Ci | Ci.compose(Ic) | Cc.compose(Cc);
      if (NewIi == Ii && NewCi == Ci && NewIc == Ic && NewCc == Cc)
        break;
      Ii = NewIi;
      Ci = NewCi;
      Ic = NewIc;
      Cc = NewCc;
    }

    return (Ii & Relation::cross(R, R, N)) | (Ic & Relation::cross(R, W, N));
  });
}

/// fence = sync u (lwsync \ W x R), plus tfence when enabled.
const Relation &fence(const ExecutionAnalysis &A, AxiomMask M) {
  bool Tfence = M.test(kTfence);
  return A.memoTerm(&FenceTag, M.bits() & kFenceSalt, Tfence, [&] {
    unsigned N = A.size();
    Relation F = A.fenceRel(FenceKind::Sync) |
                 (A.fenceRel(FenceKind::LwSync) -
                  Relation::cross(A.writes(), A.reads(), N));
    if (Tfence)
      F |= A.tfence();
    return F;
  });
}

bool hbTxnDependent(AxiomMask M) {
  return M.test(kTfence) || M.test(kThb);
}

const Relation &hb(const ExecutionAnalysis &A, AxiomMask M) {
  return A.memoTerm(&HbTag, M.bits() & kHbSalt, hbTxnDependent(M), [&] {
    Relation Ihb = ppo(A) | fence(A, M);
    const Relation &Rfe = A.rfe();
    Relation Hb = Rfe.optional().compose(Ihb).compose(Rfe.optional());

    if (M.test(kThb)) {
      // thb = (rfe u ((fre u coe)* ; ihb))* ; (fre u coe)* ; rfe?
      Relation FreCoe = (A.fre() | A.coe()).reflexiveTransitiveClosure();
      Relation Chain =
          (Rfe | FreCoe.compose(Ihb)).reflexiveTransitiveClosure();
      Relation Thb = Chain.compose(FreCoe).compose(Rfe.optional());
      Hb |= weakLift(Thb, A.stxn());
    }
    return Hb;
  });
}

const Relation &hbStar(const ExecutionAnalysis &A, AxiomMask M) {
  return A.memoTerm(&HbStarTag, M.bits() & kHbSalt, hbTxnDependent(M),
                    [&] { return hb(A, M).reflexiveTransitiveClosure(); });
}

/// prop: how fences constrain the order in which writes propagate, with
/// the tprop1/tprop2 TM contributions when enabled.
const Relation &prop(const ExecutionAnalysis &A, AxiomMask M) {
  bool TxnDep = hbTxnDependent(M) || M.test(kTProp1) || M.test(kTProp2);
  return A.memoTerm(&PropTag, M.bits() & kPropSalt, TxnDep, [&] {
    unsigned N = A.size();
    EventSet W = A.writes();
    const Relation &Fence = fence(A, M);
    const Relation &HbStar = hbStar(A, M);
    const Relation &Rfe = A.rfe();
    Relation IdW = Relation::identityOn(W, N);

    Relation Efence = Rfe.optional().compose(Fence).compose(Rfe.optional());
    Relation Prop1 = IdW.compose(Efence).compose(HbStar).compose(IdW);
    Relation SyncLike = A.fenceRel(FenceKind::Sync);
    if (M.test(kTfence))
      SyncLike |= A.tfence();
    Relation Prop2 = A.external(A.com())
                         .reflexiveTransitiveClosure()
                         .compose(Efence.reflexiveTransitiveClosure())
                         .compose(HbStar)
                         .compose(SyncLike)
                         .compose(HbStar);
    Relation Prop = Prop1 | Prop2;
    if (M.test(kTProp1))
      Prop |= Rfe.compose(A.stxn()).compose(IdW);
    if (M.test(kTProp2))
      Prop |= A.stxn().compose(Rfe);
    return Prop;
  });
}

Relation thbTerm(const ExecutionAnalysis &A, AxiomMask M) {
  // Diagnostic rendering of the modifier: the hb relation it strengthens.
  return hb(A, M);
}

Relation tprop1Term(const ExecutionAnalysis &A, AxiomMask) {
  return A.rfe().compose(A.stxn()).compose(
      Relation::identityOn(A.writes(), A.size()));
}

Relation tprop2Term(const ExecutionAnalysis &A, AxiomMask) {
  return A.stxn().compose(A.rfe());
}

Relation order(const ExecutionAnalysis &A, AxiomMask M) { return hb(A, M); }

Relation propagation(const ExecutionAnalysis &A, AxiomMask M) {
  return A.co() | prop(A, M);
}

Relation observation(const ExecutionAnalysis &A, AxiomMask M) {
  return A.fre().compose(prop(A, M)).compose(hbStar(A, M));
}

Relation txnOrder(const ExecutionAnalysis &A, AxiomMask M) {
  return strongLift(hb(A, M), A.stxn());
}

// Axiom salts (Axiom.h): the hb-derived terms read {tfence, thb}; the
// prop-derived terms additionally read {tprop1, tprop2} — the same
// footprints handed to memoTerm above. Everything else ignores the mask.
// TxnCancelsRMW is the shared `terms::txnCancelsRmw` (one definition with
// ARMv8, and the guard term of the cross-arch hierarchy edges).
//
// Vocabulary footprints (Axiom.h): tprop1/tprop2 compose through `stxn`
// and tfence/TxnCancelsRMW through the implicit transaction fences, so
// all are empty on txn-free executions ({Txn}); RMWIsol is empty without
// RMW pairs ({Rmw}). The hb/prop compounds, `thb` (which renders hb), and
// the strong-lift terms read plain po/com — full footprint.
const Axiom PowerAxioms[] = {
    {"Coherence", AxiomKind::Acyclic, terms::coherence, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"RMWIsol", AxiomKind::Empty, terms::rmwIsolation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Rmw},
    {"tfence", AxiomKind::Acyclic, terms::tfence, /*Tm=*/true,
     /*Modifier=*/true, /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"thb", AxiomKind::Acyclic, thbTerm, /*Tm=*/true, /*Modifier=*/true,
     /*Salt=*/kHbSalt, /*Footprint=*/~0u},
    {"Order", AxiomKind::Acyclic, order, /*Tm=*/false, /*Modifier=*/false,
     /*Salt=*/kHbSalt, /*Footprint=*/~0u},
    {"tprop1", AxiomKind::Acyclic, tprop1Term, /*Tm=*/true,
     /*Modifier=*/true, /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"tprop2", AxiomKind::Acyclic, tprop2Term, /*Tm=*/true,
     /*Modifier=*/true, /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"Propagation", AxiomKind::Acyclic, propagation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/kPropSalt, /*Footprint=*/~0u},
    {"Observation", AxiomKind::Irreflexive, observation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/kPropSalt, /*Footprint=*/~0u},
    {"StrongIsol", AxiomKind::Acyclic, terms::strongIsolation, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"TxnOrder", AxiomKind::Acyclic, txnOrder, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/kHbSalt, /*Footprint=*/~0u},
    {"TxnCancelsRMW", AxiomKind::Empty, terms::txnCancelsRmw, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Txn},
};

} // namespace

AxiomList PowerModel::axioms() const { return PowerAxioms; }

Relation PowerModel::preservedProgramOrder(
    const ExecutionAnalysis &A) const {
  return ppo(A);
}

Relation PowerModel::happensBefore(const ExecutionAnalysis &A) const {
  return hb(A, Mask);
}
