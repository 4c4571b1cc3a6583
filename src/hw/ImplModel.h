//===- ImplModel.h - Axiomatic hardware substitutes -------------*- C++ -*-==//
///
/// \file
/// Axiomatic stand-ins for silicon. Real machines implement a strict
/// subset of their architecture: POWER8, for instance, has never exhibited
/// load-buffering (§5.3), and shipped cores are generally stronger than
/// the specification. `ImplModel` wraps an architecture model and layers
/// implementation conservatism on top — or, for the §6.2 experiment, a
/// deliberate *bug* (an ARMv8 "RTL prototype" violating TxnOrder), so the
/// Forbid suite can demonstrate its bug-finding power.
///
/// The wrapper is itself declarative: its axiom list is the wrapped
/// spec's list with a final `NoLoadBuffering(impl)` axiom appended
/// (acyclic(po u rf)), and its mask inherits the spec's configuration, so
/// the generic check engine evaluates implementation models like any
/// other.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_HW_IMPLMODEL_H
#define TMW_HW_IMPLMODEL_H

#include "models/MemoryModel.h"

#include <memory>
#include <vector>

namespace tmw {

/// A hardware implementation as an axiomatic model: the behaviours the
/// simulated machine can exhibit.
class ImplModel : public MemoryModel {
public:
  /// Wrap \p Spec and additionally require acyclic(po u rf) (LB shapes
  /// never occur, as on real Power/ARM parts). \p SpecToken is the
  /// registry spec name this wrapper answers to (`ModelRegistry` resolves
  /// and round-trips it).
  ImplModel(std::unique_ptr<MemoryModel> Spec, const char *Name,
            const char *SpecToken);

  const char *name() const override { return Label; }
  Arch arch() const override { return Spec->arch(); }
  /// The spec's axioms plus the implementation axiom (spec indices — and
  /// hence mask bits — are preserved by appending).
  AxiomList axioms() const override { return Axioms; }

  /// Registry spec token ("power8", "x86-impl", ...).
  const char *specToken() const { return Token; }

  /// A conservative POWER8-like machine: the Power+TM model with no load
  /// buffering. Registry spec: "power8".
  static ImplModel power8();
  /// A conservative ARMv8 part with the proposed TM extension. Registry
  /// spec: "armv8-silicon".
  static ImplModel armv8Silicon();
  /// The §6.2 buggy RTL prototype: TxnOrder dropped, so lifted ob cycles
  /// between transactions slip through. Registry spec: "armv8-rtl".
  static ImplModel armv8BuggyRtl();
  /// The generic implementation-conservative substitute for \p A: the
  /// default architecture model with no load buffering. Registry spec:
  /// "<arch>-impl" (so `power-impl` is `power8` minus the branding).
  static ImplModel implFor(Arch A);

private:
  std::unique_ptr<MemoryModel> Spec;
  std::vector<Axiom> Axioms;
  const char *Label;
  const char *Token;
};

} // namespace tmw

#endif // TMW_HW_IMPLMODEL_H
