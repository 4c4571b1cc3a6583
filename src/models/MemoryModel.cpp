//===- MemoryModel.cpp - Axiomatic consistency predicates -------------------==//
///
/// The generic axiom-check engine: every model is evaluated by the same
/// loop over its declarative axiom list.
///
//===----------------------------------------------------------------------===//

#include "models/MemoryModel.h"

using namespace tmw;

int tmw::findAxiom(AxiomList Axioms, std::string_view Name) {
  for (unsigned I = 0; I < Axioms.size(); ++I)
    if (Axioms[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

AxiomMask tmw::baselineMask(AxiomList Axioms) {
  AxiomMask M = AxiomMask::all();
  for (unsigned I = 0; I < Axioms.size(); ++I)
    if (Axioms[I].Tm)
      M.set(I, false);
  return M;
}

MemoryModel::~MemoryModel() = default;

bool MemoryModel::setAxiomEnabled(std::string_view Name, bool On) {
  int I = findAxiom(axioms(), Name);
  if (I < 0)
    return false;
  Mask.set(static_cast<unsigned>(I), On);
  return true;
}

bool MemoryModel::axiomEnabled(std::string_view Name) const {
  int I = findAxiom(axioms(), Name);
  return I >= 0 && Mask.test(static_cast<unsigned>(I));
}

bool MemoryModel::anyTmEnabled() const {
  AxiomList Axs = axioms();
  for (unsigned I = 0; I < Axs.size(); ++I)
    if (Axs[I].Tm && Mask.test(I))
      return true;
  return false;
}

bool tmw::axiomHolds(AxiomKind K, const Relation &Term) {
  switch (K) {
  case AxiomKind::Acyclic:
    return Term.isAcyclic();
  case AxiomKind::Irreflexive:
    return Term.isIrreflexive();
  case AxiomKind::Empty:
    return Term.isEmpty();
  }
  return true;
}

namespace {

EventSet witnessOf(AxiomKind K, const Relation &Term) {
  switch (K) {
  case AxiomKind::Acyclic:
    return Term.findCycle();
  case AxiomKind::Irreflexive:
    return Term.reflexivePoints().first();
  case AxiomKind::Empty:
    return Term.field();
  }
  return {};
}

} // namespace

ConsistencyResult MemoryModel::check(const ExecutionAnalysis &A) const {
  return check(A, AxiomMask::all());
}

ConsistencyResult MemoryModel::check(const ExecutionAnalysis &A,
                                     AxiomMask Only) const {
  AxiomList Axs = axioms();
  unsigned N = static_cast<unsigned>(Axs.size());
  // The set bits in ascending order are the table order.
  for (uint32_t Bits = Mask.normalized(N).bits() & Only.bits(); Bits;
       Bits &= Bits - 1) {
    const Axiom &Ax = Axs[__builtin_ctz(Bits)];
    if (Ax.Modifier)
      continue;
    if (!axiomHolds(Ax.Kind, Ax.Term(A, Mask)))
      return ConsistencyResult::fail(Ax.Name);
  }
  return ConsistencyResult::ok();
}

CheckReport MemoryModel::checkAll(const ExecutionAnalysis &A) const {
  AxiomList Axs = axioms();
  CheckReport Report;
  Report.Verdicts.reserve(Axs.size());
  for (unsigned I = 0; I < Axs.size(); ++I) {
    const Axiom &Ax = Axs[I];
    AxiomVerdict V;
    V.Ax = &Ax;
    V.Enabled = Mask.test(I);
    if (V.Enabled && !Ax.Modifier) {
      Relation Term = Ax.Term(A, Mask);
      V.Holds = axiomHolds(Ax.Kind, Term);
      if (!V.Holds) {
        V.Witness = witnessOf(Ax.Kind, Term);
        if (Report.Consistent) {
          Report.Consistent = false;
          Report.FailedAxiom = Ax.Name;
        }
      }
    }
    Report.Verdicts.push_back(V);
  }
  return Report;
}

Relation tmw::terms::coherence(const ExecutionAnalysis &A, AxiomMask) {
  return A.poLoc() | A.com();
}

Relation tmw::terms::rmwIsolation(const ExecutionAnalysis &A, AxiomMask) {
  return A.rmw() & A.fre().compose(A.coe());
}

Relation tmw::terms::strongIsolation(const ExecutionAnalysis &A,
                                     AxiomMask) {
  return A.strongLiftComStxn();
}

Relation tmw::terms::tfence(const ExecutionAnalysis &A, AxiomMask) {
  return A.tfence();
}

Relation tmw::terms::txnCancelsRmw(const ExecutionAnalysis &A, AxiomMask) {
  return A.rmw() & A.tfence().transitiveClosure();
}

const char *tmw::archName(Arch A) {
  switch (A) {
  case Arch::SC:
    return "SC";
  case Arch::TSC:
    return "TSC";
  case Arch::X86:
    return "x86";
  case Arch::Power:
    return "Power";
  case Arch::Armv8:
    return "ARMv8";
  case Arch::Cpp:
    return "C++";
  }
  return "?";
}

bool tmw::holdsWeakIsolation(const ExecutionAnalysis &A) {
  return A.weakLiftComStxn().isAcyclic();
}

bool tmw::holdsStrongIsolation(const ExecutionAnalysis &A) {
  return A.strongLiftComStxn().isAcyclic();
}

bool tmw::holdsStrongIsolationAtomic(const ExecutionAnalysis &A) {
  return A.strongLiftComStxnAtomic().isAcyclic();
}
