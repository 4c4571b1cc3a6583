//===- ImplModel.cpp - Axiomatic hardware substitutes -------------------------==//

#include "hw/ImplModel.h"

#include "models/ModelRegistry.h"

using namespace tmw;

namespace {

Relation noLoadBuffering(const ExecutionAnalysis &A, AxiomMask) {
  return A.po() | A.rf();
}

} // namespace

ImplModel::ImplModel(std::unique_ptr<MemoryModel> Spec, const char *Name,
                     const char *SpecToken)
    : Spec(std::move(Spec)), Label(Name), Token(SpecToken) {
  AxiomList SpecAxioms = this->Spec->axioms();
  Axioms.assign(SpecAxioms.begin(), SpecAxioms.end());
  Axioms.push_back({"NoLoadBuffering(impl)", AxiomKind::Acyclic,
                    noLoadBuffering, /*Tm=*/false, /*Modifier=*/false,
                    /*Salt=*/0, /*Footprint=*/~0u});
  // Inherit the spec's configuration; the appended implementation axiom
  // sits past the spec's indices, so the spec's term functions keep
  // reading their own bits.
  Mask = this->Spec->axiomMask();
  Mask.set(static_cast<unsigned>(Axioms.size() - 1), true);
}

ImplModel ImplModel::power8() {
  return ImplModel(ModelRegistry::make(Arch::Power), "POWER8 (simulated)",
                   "power8");
}

ImplModel ImplModel::armv8Silicon() {
  return ImplModel(ModelRegistry::make(Arch::Armv8),
                   "ARMv8+TM silicon (simulated)", "armv8-silicon");
}

ImplModel ImplModel::armv8BuggyRtl() {
  return ImplModel(ModelRegistry::parse("armv8/-TxnOrder"),
                   "ARMv8 RTL prototype (buggy)", "armv8-rtl");
}

ImplModel ImplModel::implFor(Arch A) {
  // Interned "<arch>-impl" tokens and labels, one literal per arch, so
  // name()/specToken() stay valid for the program's lifetime like every
  // other model name.
  static constexpr const char *Tokens[] = {"sc-impl",    "tsc-impl",
                                           "x86-impl",   "power-impl",
                                           "armv8-impl", "cpp-impl"};
  static constexpr const char *Labels[] = {
      "sc-impl (simulated)",    "tsc-impl (simulated)",
      "x86-impl (simulated)",   "power-impl (simulated)",
      "armv8-impl (simulated)", "cpp-impl (simulated)"};
  unsigned I = static_cast<unsigned>(A);
  return ImplModel(ModelRegistry::make(A), Labels[I], Tokens[I]);
}
