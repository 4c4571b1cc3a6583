//===- Armv8Model.h - ARMv8 with proposed transactions ----------*- C++ -*-==//
///
/// \file
/// The ARMv8 memory model of Fig. 8: the official multicopy-atomic
/// axiomatic model (Deacon's aarch64.cat as simplified by Pulte et al.,
/// POPL 2018) with the paper's unofficial TM extension — implicit
/// transaction fences, strong isolation, TxnOrder over the ordered-before
/// relation, and TxnCancelsRMW for exclusives straddling a transaction
/// boundary.
///
/// Axioms: Coherence, tfence (TM modifier), Order, RMWIsol,
///         StrongIsol (TM), TxnOrder (TM), TxnCancelsRMW (TM).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_ARMV8MODEL_H
#define TMW_MODELS_ARMV8MODEL_H

#include "models/MemoryModel.h"

namespace tmw {

/// ARMv8 (Fig. 8). Default configuration enables all TM axioms.
class Armv8Model : public MemoryModel {
public:
  const char *name() const override {
    return anyTmEnabled() ? "ARMv8+TM" : "ARMv8";
  }
  Arch arch() const override { return Arch::Armv8; }
  AxiomList axioms() const override;
};

} // namespace tmw

#endif // TMW_MODELS_ARMV8MODEL_H
