//===- model_hierarchy_test.cpp - Cross-model inclusion properties ------------==//
///
/// §3.4: "The models we propose in §5–7 all lie between these bounds" —
/// TSC above, isolation below. These sweeps check, over every enumerated
/// execution of a vocabulary up to a bound:
///
///   * TSC-consistent    => consistent under each hardware TM model;
///   * TM-consistent     => consistent under the non-TM baseline;
///   * TM-consistent     => strong (hence weak) isolation holds;
///   * TSC-consistent    => SC-consistent;
///   * SC-consistent     => consistent under each hardware baseline
///                          (for rmw-free executions);
///   * x86-consistent    => ARMv8-consistent (TSO is the stronger model).
///
//===----------------------------------------------------------------------===//

#include "enumerate/Enumerator.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// Sweep all executions (bases and transaction placements) of \p V up to
/// \p NumEvents.
template <typename Fn>
void sweep(const Vocabulary &V, unsigned NumEvents, Fn &&Check) {
  ExecutionEnumerator Enum(V, NumEvents);
  Enum.forEachBase([&](Execution &Base) {
    Check(Base);
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      Check(X);
      return true;
    });
  });
}

struct Models {
  ScModel Sc;
  TscModel Tsc;
  X86Model X86;
  std::unique_ptr<MemoryModel> X86Base =
      ModelRegistry::parse("x86/+baseline");
  PowerModel Power;
  std::unique_ptr<MemoryModel> PowerBase =
      ModelRegistry::parse("power/+baseline");
  Armv8Model Armv8;
  std::unique_ptr<MemoryModel> Armv8Base =
      ModelRegistry::parse("armv8/+baseline");
  CppModel Cpp;
  std::unique_ptr<MemoryModel> CppBase =
      ModelRegistry::parse("cpp/+baseline");
};

class HierarchySweep : public ::testing::TestWithParam<unsigned> {
protected:
  Models M;
};

TEST_P(HierarchySweep, TscIsAnUpperBoundForEveryTmModel) {
  uint64_t Considered = 0;
  sweep(Vocabulary::forArch(Arch::X86), GetParam(), [&](const Execution &X) {
    if (!M.Tsc.consistent(X))
      return;
    // RMWIsol and TxnCancelsRMW are failure semantics, not ordering: an
    // intruded-upon or boundary-straddling exclusive pair simply never
    // succeeds on hardware, and Fig. 4's TSC has no axiom about either —
    // such executions sit outside the upper-bound claim.
    if (!(X.Rmw & X.tfence().transitiveClosure()).isEmpty())
      return;
    if (!(X.Rmw & X.fre().compose(X.coe())).isEmpty())
      return;
    ++Considered;
    EXPECT_TRUE(M.X86.consistent(X)) << X.dump();
    EXPECT_TRUE(M.Power.consistent(X)) << X.dump();
    EXPECT_TRUE(M.Armv8.consistent(X)) << X.dump();
  });
  EXPECT_GT(Considered, 0u);
}

TEST_P(HierarchySweep, TmConsistencyImpliesBaselineConsistency) {
  sweep(Vocabulary::forArch(Arch::X86), GetParam(), [&](const Execution &X) {
    if (M.X86.consistent(X)) {
      EXPECT_TRUE(M.X86Base->consistent(X)) << X.dump();
    }
    if (M.Power.consistent(X)) {
      EXPECT_TRUE(M.PowerBase->consistent(X)) << X.dump();
    }
    if (M.Armv8.consistent(X)) {
      EXPECT_TRUE(M.Armv8Base->consistent(X)) << X.dump();
    }
  });
}

TEST_P(HierarchySweep, TmConsistencyImpliesIsolation) {
  sweep(Vocabulary::forArch(Arch::X86), GetParam(), [&](const Execution &X) {
    for (const MemoryModel *Tm :
         std::initializer_list<const MemoryModel *>{&M.X86, &M.Power,
                                                    &M.Armv8}) {
      if (!Tm->consistent(X))
        continue;
      EXPECT_TRUE(holdsStrongIsolation(X)) << Tm->name() << "\n" << X.dump();
      EXPECT_TRUE(holdsWeakIsolation(X)) << Tm->name() << "\n" << X.dump();
    }
  });
}

TEST_P(HierarchySweep, TscImpliesSc) {
  sweep(Vocabulary::forArch(Arch::SC), GetParam(), [&](const Execution &X) {
    if (M.Tsc.consistent(X)) {
      EXPECT_TRUE(M.Sc.consistent(X)) << X.dump();
    }
  });
}

TEST_P(HierarchySweep, ScImpliesHardwareBaselines) {
  sweep(Vocabulary::forArch(Arch::SC), GetParam(), [&](const Execution &X) {
    if (!X.Rmw.isEmpty() || !M.Sc.consistent(X))
      return;
    EXPECT_TRUE(M.X86Base->consistent(X)) << X.dump();
    EXPECT_TRUE(M.PowerBase->consistent(X)) << X.dump();
    EXPECT_TRUE(M.Armv8Base->consistent(X)) << X.dump();
  });
}

TEST_P(HierarchySweep, X86ImpliesArmv8) {
  // TSO is stronger than ARMv8: anything TSO forbids beyond ARMv8 is
  // fine, anything TSO allows ARMv8 allows — except for the failure
  // semantics of exclusives straddling transaction boundaries
  // (TxnCancelsRMW), which x86's locked RMWs do not share.
  sweep(Vocabulary::forArch(Arch::X86), GetParam(), [&](const Execution &X) {
    if (!(X.Rmw & X.tfence().transitiveClosure()).isEmpty())
      return;
    if (M.X86.consistent(X)) {
      EXPECT_TRUE(M.Armv8.consistent(X)) << X.dump();
    }
  });
}

TEST_P(HierarchySweep, TransactionFreeAgreementBetweenTmAndBaseline) {
  // §8: the TM models give the same semantics to transaction-free
  // executions as the original models — over the whole enumerated space.
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator Enum(V, GetParam());
  Enum.forEachBase([&](Execution &X) {
    EXPECT_EQ(M.X86.consistent(X), M.X86Base->consistent(X)) << X.dump();
    EXPECT_EQ(M.Power.consistent(X), M.PowerBase->consistent(X))
        << X.dump();
    EXPECT_EQ(M.Armv8.consistent(X), M.Armv8Base->consistent(X))
        << X.dump();
    EXPECT_EQ(M.Cpp.consistent(X), M.CppBase->consistent(X)) << X.dump();
    return true;
  });
}

INSTANTIATE_TEST_SUITE_P(Bounds, HierarchySweep, ::testing::Values(3u, 4u));

} // namespace
