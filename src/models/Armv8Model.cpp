//===- Armv8Model.cpp - ARMv8 with proposed transactions ---------------------==//

#include "models/Armv8Model.h"

using namespace tmw;

namespace {

/// Indices into `Armv8Axioms` (= `AxiomMask` bit positions).
enum : unsigned { kCoherence, kTfence, kOrder, kRMWIsol, kStrongIsol,
                  kTxnOrder, kTxnCancelsRMW };

constexpr char ObBaseTag = 0;

/// The transaction-free part of ordered-before: obs u dob u aob u bob.
/// Transaction-independent, so one computation serves every placement
/// over a base execution.
const Relation &obBase(const ExecutionAnalysis &A) {
  return A.memoTerm(&ObBaseTag, 0, /*TxnDependent=*/false, [&] {
    unsigned N = A.size();
    EventSet R = A.reads(), W = A.writes();
    // Acq: acquire reads (LDAR/LDAXR); L: release writes (STLR).
    EventSet Acq = A.acquires() & R;
    EventSet L = A.releases() & W;
    Relation IdA = Relation::identityOn(Acq, N);
    Relation IdL = Relation::identityOn(L, N);
    Relation IdR = Relation::identityOn(R, N);
    Relation IdW = Relation::identityOn(W, N);

    // Observed-by: external communication.
    Relation Obs = A.external(A.com());

    // Dependency-ordered-before.
    Relation IsbId = Relation::identityOn(A.fences(FenceKind::Isb), N);
    Relation IsbBefore =
        (A.ctrl() | A.addr().compose(A.po())).compose(IsbId).compose(A.po())
            .compose(IdR);
    Relation Dob = A.addr() | A.data();
    Dob |= A.ctrl().compose(IdW);
    Dob |= IsbBefore;
    Dob |= A.addr().compose(A.po()).compose(IdW);
    Dob |= (A.ctrl() | A.data()).compose(A.coi());
    Dob |= (A.addr() | A.data()).compose(A.rfi());

    // Atomic-ordered-before.
    Relation Aob = A.rmw();
    Aob |= Relation::identityOn(A.rmw().range(), N).compose(A.rfi())
               .compose(IdA);

    // Barrier-ordered-before.
    Relation DmbId = Relation::identityOn(A.fences(FenceKind::Dmb), N);
    Relation DmbLdId = Relation::identityOn(A.fences(FenceKind::DmbLd), N);
    Relation DmbStId = Relation::identityOn(A.fences(FenceKind::DmbSt), N);
    Relation Bob = A.po().compose(DmbId).compose(A.po());
    Bob |= IdL.compose(A.po()).compose(IdA);
    Bob |= IdR.compose(A.po()).compose(DmbLdId).compose(A.po());
    Bob |= IdA.compose(A.po());
    Bob |= IdW.compose(A.po()).compose(DmbStId).compose(A.po()).compose(IdW);
    Bob |= A.po().compose(IdL);
    Bob |= A.po().compose(IdL).compose(A.coi());

    return Obs | Dob | Aob | Bob;
  });
}

Relation ob(const ExecutionAnalysis &A, AxiomMask M) {
  Relation Ob = obBase(A);
  if (M.test(kTfence))
    Ob |= A.tfence();
  return Ob;
}

Relation txnOrder(const ExecutionAnalysis &A, AxiomMask M) {
  return strongLift(ob(A, M), A.stxn());
}

/// Mask bits the ob-derived terms read (the salt annotation of Axiom.h).
constexpr uint32_t kObSalt = 1u << kTfence;

// Axiom salts: only the ob-derived terms read the mask (its tfence bit).
// TxnCancelsRMW is the shared `terms::txnCancelsRmw` (one definition with
// Power, and the guard term of the cross-arch hierarchy edges).
//
// Vocabulary footprints (Axiom.h): tfence and TxnCancelsRMW vanish
// without transactions ({Txn}), RMWIsol without RMW pairs ({Rmw}); ob
// reads plain po/com and the strong-lift terms degenerate to ob on
// txn-free executions — full footprint.
const Axiom Armv8Axioms[] = {
    {"Coherence", AxiomKind::Acyclic, terms::coherence, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"tfence", AxiomKind::Acyclic, terms::tfence, /*Tm=*/true,
     /*Modifier=*/true, /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"Order", AxiomKind::Acyclic, ob, /*Tm=*/false, /*Modifier=*/false,
     /*Salt=*/kObSalt, /*Footprint=*/~0u},
    {"RMWIsol", AxiomKind::Empty, terms::rmwIsolation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Rmw},
    {"StrongIsol", AxiomKind::Acyclic, terms::strongIsolation, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"TxnOrder", AxiomKind::Acyclic, txnOrder, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/kObSalt, /*Footprint=*/~0u},
    {"TxnCancelsRMW", AxiomKind::Empty, terms::txnCancelsRmw, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Txn},
};

} // namespace

AxiomList Armv8Model::axioms() const { return Armv8Axioms; }
