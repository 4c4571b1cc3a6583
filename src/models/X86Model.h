//===- X86Model.h - x86-TSO with transactions -------------------*- C++ -*-==//
///
/// \file
/// The x86 memory model of Fig. 5: TSO happens-before (Alglave et al.) with
/// the paper's TM additions — implicit transaction fences (tfence), strong
/// isolation, and transaction ordering (TxnOrder). Each TM axiom is a named
/// entry of the declarative axiom table and is toggled by name (a registry
/// spec such as `"x86/-TxnOrder"`, or `setAxiomEnabled`); the all-off
/// configuration, `"x86/+baseline"`, is the non-transactional baseline
/// used when synthesising the Forbid suite.
///
/// Axioms: Coherence, RMWIsol, tfence (TM modifier), Order,
///         StrongIsol (TM), TxnOrder (TM).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_X86MODEL_H
#define TMW_MODELS_X86MODEL_H

#include "models/MemoryModel.h"

namespace tmw {

/// x86 (Fig. 5). Default configuration enables all TM axioms.
class X86Model : public MemoryModel {
public:
  const char *name() const override {
    return anyTmEnabled() ? "x86+TM" : "x86";
  }
  Arch arch() const override { return Arch::X86; }
  AxiomList axioms() const override;

  /// The happens-before relation of Fig. 5 under this configuration.
  Relation happensBefore(const ExecutionAnalysis &A) const;
};

} // namespace tmw

#endif // TMW_MODELS_X86MODEL_H
