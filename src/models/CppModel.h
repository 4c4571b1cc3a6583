//===- CppModel.h - C++ (RC11) with transactions ----------------*- C++ -*-==//
///
/// \file
/// The C++ memory model of Fig. 9, built on the RC11 formalisation (Lahav
/// et al., PLDI 2017) so that compilation to Power can be checked. The
/// paper's TM extension avoids the specification's total order over
/// transactions: conflicting transactions synchronise in extended-
/// communication order instead (tsw = weaklift(ecom, stxn), §7.2).
///
/// The model defines two predicates: consistency, and race-freedom
/// (NoRace). A program with a racy consistent execution is undefined.
///
/// Axioms: Tsw (TM modifier), HbCom, RMWIsol, NoThinAir, SeqCst.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_CPPMODEL_H
#define TMW_MODELS_CPPMODEL_H

#include "models/MemoryModel.h"

namespace tmw {

/// C++ (Fig. 9). Default configuration enables the TM extension.
class CppModel : public MemoryModel {
public:
  const char *name() const override {
    return anyTmEnabled() ? "C+++TM" : "C++";
  }
  Arch arch() const override { return Arch::Cpp; }
  AxiomList axioms() const override;

  /// Happens-before: (sw u tsw u po)+.
  Relation happensBefore(const ExecutionAnalysis &A) const;
  /// Partial-SC relation psc (RC11) whose acyclicity is the SeqCst axiom.
  Relation psc(const ExecutionAnalysis &A) const;
  /// Conflicting event pairs (cnf in Fig. 9).
  Relation conflicts(const ExecutionAnalysis &A) const;

  /// NoRace: conflicting non-atomic-pair events must be hb-ordered.
  bool raceFree(const ExecutionAnalysis &A) const;
};

} // namespace tmw

#endif // TMW_MODELS_CPPMODEL_H
