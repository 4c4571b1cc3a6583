//===- CppModel.cpp - C++ (RC11) with transactions ---------------------------==//

#include "models/CppModel.h"

using namespace tmw;

namespace {

/// Indices into `CppAxioms` (= `AxiomMask` bit positions).
enum : unsigned { kTsw, kHbCom, kRMWIsol, kNoThinAir, kSeqCst };

constexpr char HbTag = 0, PscTag = 0;
constexpr uint32_t kHbSalt = 1u << kTsw;

Relation tswTerm(const ExecutionAnalysis &A, AxiomMask) {
  return A.cppTransactionalSw();
}

const Relation &hb(const ExecutionAnalysis &A, AxiomMask M) {
  bool Tsw = M.test(kTsw);
  return A.memoTerm(&HbTag, M.bits() & kHbSalt, /*TxnDependent=*/Tsw,
                    [&] {
    Relation Sw = A.cppSynchronisesWith();
    if (Tsw)
      Sw |= A.cppTransactionalSw();
    return (Sw | A.po()).transitiveClosure();
  });
}

Relation hbCom(const ExecutionAnalysis &A, AxiomMask M) {
  return hb(A, M).compose(A.com().reflexiveTransitiveClosure());
}

Relation noThinAir(const ExecutionAnalysis &A, AxiomMask) {
  return A.po() | A.rf();
}

/// psc (RC11): scb glued between SC-fence/SC-access endpoints.
const Relation &psc(const ExecutionAnalysis &A, AxiomMask M) {
  return A.memoTerm(&PscTag, M.bits() & kHbSalt,
                    /*TxnDependent=*/M.test(kTsw), [&] {
    unsigned N = A.size();
    const Relation &Hb = hb(A, M);
    Relation HbOpt = Hb.optional();
    Relation Eco = A.com().transitiveClosure();
    const Relation &Sloc = A.sloc();

    EventSet Sc = A.seqCst();
    EventSet Fsc = Sc & A.fences();
    Relation IdSc = Relation::identityOn(Sc, N);
    Relation IdFsc = Relation::identityOn(Fsc, N);

    // scb = po u (po \ sloc ; hb ; po \ sloc) u (hb n sloc) u co u fr.
    Relation PoNonLoc = A.po() - Sloc;
    Relation Scb = A.po() | PoNonLoc.compose(Hb).compose(PoNonLoc) |
                   (Hb & Sloc) | A.co() | A.fr();

    Relation Left = IdSc | IdFsc.compose(HbOpt);
    Relation Right = IdSc | HbOpt.compose(IdFsc);
    Relation PscBase = Left.compose(Scb).compose(Right);
    Relation PscF =
        IdFsc.compose(Hb | Hb.compose(Eco).compose(Hb)).compose(IdFsc);
    return PscBase | PscF;
  });
}

Relation seqCst(const ExecutionAnalysis &A, AxiomMask M) {
  return psc(A, M);
}

// Axiom salts (Axiom.h): the hb-derived terms (HbCom, SeqCst via psc)
// read only the Tsw bit — the same footprint `kHbSalt` hands to memoTerm.
//
// Vocabulary footprints (Axiom.h): Tsw is a weak lift through `stxn`
// (empty on txn-free executions, {Txn}) and RMWIsol is empty without RMW
// pairs ({Rmw}); the hb/psc compounds and NoThinAir read plain po/rf —
// full footprint.
const Axiom CppAxioms[] = {
    {"Tsw", AxiomKind::Acyclic, tswTerm, /*Tm=*/true, /*Modifier=*/true,
     /*Salt=*/0, /*Footprint=*/vocab::Txn},
    {"HbCom", AxiomKind::Irreflexive, hbCom, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/kHbSalt, /*Footprint=*/~0u},
    {"RMWIsol", AxiomKind::Empty, terms::rmwIsolation, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/vocab::Rmw},
    {"NoThinAir", AxiomKind::Acyclic, noThinAir, /*Tm=*/false,
     /*Modifier=*/false, /*Salt=*/0, /*Footprint=*/~0u},
    {"SeqCst", AxiomKind::Acyclic, seqCst, /*Tm=*/false, /*Modifier=*/false,
     /*Salt=*/kHbSalt, /*Footprint=*/~0u},
};

} // namespace

AxiomList CppModel::axioms() const { return CppAxioms; }

Relation CppModel::happensBefore(const ExecutionAnalysis &A) const {
  return hb(A, Mask);
}

Relation CppModel::psc(const ExecutionAnalysis &A) const {
  return ::psc(A, Mask);
}

Relation CppModel::conflicts(const ExecutionAnalysis &A) const {
  unsigned N = A.size();
  EventSet W = A.writes(), R = A.reads();
  Relation Cnf = (Relation::cross(W, W, N) | Relation::cross(R, W, N) |
                  Relation::cross(W, R, N)) &
                 A.sloc();
  return Cnf - Relation::identityOn(A.universe(), N);
}

bool CppModel::raceFree(const ExecutionAnalysis &A) const {
  unsigned N = A.size();
  EventSet Ato = A.atomics();
  Relation Hb = happensBefore(A);
  Relation Races = conflicts(A) - Relation::cross(Ato, Ato, N) -
                   (Hb | Hb.inverse());
  return Races.isEmpty();
}
