//===- X86Model.cpp - x86-TSO with transactions ------------------------------==//

#include "models/X86Model.h"

using namespace tmw;

namespace {

/// Indices into `X86Axioms` (= `AxiomMask` bit positions).
enum : unsigned { kCoherence, kRMWIsol, kTfence, kOrder, kStrongIsol,
                  kTxnOrder };

/// memoTerm tag (a unique static address) and the mask bits the
/// hb-derived terms read (the axiom salt, so configurations differing
/// only in irrelevant axioms share one cached term).
constexpr char HbBaseTag = 0;
constexpr uint32_t kHbSalt = 1u << kTfence;

/// The transaction-free part of hb (Fig. 5): mfence u ppo u implied u
/// rfe u fr u co. Transaction-independent, so one computation serves
/// every placement over a base execution.
const Relation &hbBase(const ExecutionAnalysis &A) {
  return A.memoTerm(&HbBaseTag, 0, /*TxnDependent=*/false, [&] {
    unsigned N = A.size();
    EventSet R = A.reads(), W = A.writes();

    // ppo = ((W x W) u (R x W) u (R x R)) n po: TSO relaxes only W->R.
    Relation Ppo = (Relation::cross(W, W, N) | Relation::cross(R, W, N) |
                    Relation::cross(R, R, N)) &
                   A.po();

    // implied = [L] ; po  u  po ; [L], L the locked RMW events.
    EventSet Locked = A.rmw().domain() | A.rmw().range();
    Relation LockedId = Relation::identityOn(Locked, N);
    Relation Implied = LockedId.compose(A.po()) | A.po().compose(LockedId);

    return A.fenceRel(FenceKind::MFence) | Ppo | Implied | A.rfe() |
           A.fr() | A.co();
  });
}

/// hb = hbBase u tfence: the implicit transaction fences join `implied`
/// when the tfence axiom is on.
Relation hb(const ExecutionAnalysis &A, AxiomMask M) {
  Relation Hb = hbBase(A);
  if (M.test(kTfence))
    Hb |= A.tfence();
  return Hb;
}

Relation txnOrder(const ExecutionAnalysis &A, AxiomMask M) {
  return strongLift(hb(A, M), A.stxn());
}

// Axiom salts (Axiom.h): only the hb-derived terms read the mask, and
// only its tfence bit (`kHbSalt`); their memoized part, `hbBase`, reads
// none of it.
//
// Vocabulary footprints (Axiom.h, audited by tmw_audit's footprint pass):
// `tfence` is empty without transactions and `rmwIsolation` without RMW
// pairs, so both are discharged vacuously by specialized plans. The
// strong-lift terms (StrongIsol, TxnOrder) degenerate to their base
// relation on txn-free executions — never vacuous, full footprint.
const Axiom X86Axioms[] = {
    {"Coherence", AxiomKind::Acyclic, terms::coherence, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"RMWIsol", AxiomKind::Empty, terms::rmwIsolation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Rmw},
    {"tfence", AxiomKind::Acyclic, terms::tfence, /*Tm=*/true,
     /*Modifier=*/true, /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"Order", AxiomKind::Acyclic, hb, /*Tm=*/false, /*Modifier=*/false,
     /*Salt=*/kHbSalt, /*Footprint=*/~0u},
    {"StrongIsol", AxiomKind::Acyclic, terms::strongIsolation, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"TxnOrder", AxiomKind::Acyclic, txnOrder, /*Tm=*/true,
     /*Modifier=*/false, /*Salt=*/kHbSalt, /*Footprint=*/~0u},
};

} // namespace

AxiomList X86Model::axioms() const { return X86Axioms; }

Relation X86Model::happensBefore(const ExecutionAnalysis &A) const {
  return hb(A, Mask);
}
