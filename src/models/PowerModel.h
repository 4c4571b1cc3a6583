//===- PowerModel.h - Power with transactions -------------------*- C++ -*-==//
///
/// \file
/// The Power memory model of Fig. 6: the herding-cats Power model (Alglave
/// et al., TOPLAS 2014) — including the ii/ic/ci/cc preserved-program-order
/// fixpoint that the paper elides — with the paper's TM additions:
///
///  * tfence    — implicit barriers at transaction boundaries;
///  * tprop1    — the transaction's integrated memory barrier (§5.2 (1));
///  * tprop2    — multicopy-atomic propagation of transactional writes
///                (§5.2 (2));
///  * thb       — the transaction serialisation order (§5.2 (3));
///  * StrongIsol, TxnOrder, and TxnCancelsRMW.
///
/// Axioms: Coherence, RMWIsol, tfence/thb/tprop1/tprop2 (TM modifiers),
///         Order, Propagation, Observation, StrongIsol (TM),
///         TxnOrder (TM), TxnCancelsRMW (TM).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_POWERMODEL_H
#define TMW_MODELS_POWERMODEL_H

#include "models/MemoryModel.h"

namespace tmw {

/// Power (Fig. 6). Default configuration enables all TM axioms.
class PowerModel : public MemoryModel {
public:
  const char *name() const override {
    return anyTmEnabled() ? "Power+TM" : "Power";
  }
  Arch arch() const override { return Arch::Power; }
  AxiomList axioms() const override;

  /// Preserved program order (the herding-cats ii/ic/ci/cc fixpoint).
  Relation preservedProgramOrder(const ExecutionAnalysis &A) const;
  /// The happens-before relation of Fig. 6 under this configuration.
  Relation happensBefore(const ExecutionAnalysis &A) const;
};

} // namespace tmw

#endif // TMW_MODELS_POWERMODEL_H
