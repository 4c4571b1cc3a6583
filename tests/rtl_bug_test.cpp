//===- rtl_bug_test.cpp - The §6.2 RTL-bug-finding flow -----------------------==//
///
/// ARM hardware does not support TM, so the ARMv8 Forbid suite cannot be
/// run on silicon; the paper reports that handing the suite to ARM
/// architects revealed a TxnOrder violation in an RTL prototype. Here the
/// prototype is an implementation model with TxnOrder dropped, and the
/// suite catches it mechanically.
///
//===----------------------------------------------------------------------===//

#include "execution/Builder.h"
#include "hw/ImplModel.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"
#include "synth/Conformance.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(RtlBugTest, ForbidSuiteCatchesTxnOrderViolation) {
  Armv8Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("armv8/+baseline");
  // TxnOrder-only witnesses first appear at 4 events and need no
  // dependencies (a release write ordered before the transaction's
  // conflicting store); restrict the vocabulary so the 4-event synthesis
  // stays fast.
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  V.Deps = false;
  V.MaxThreads = 2;
  V.MaxLocations = 2;
  ForbidSuite Suite = synthesizeForbid(Tm, *Baseline, V, 4, 300.0);
  ASSERT_FALSE(Suite.Tests.empty());

  ImplModel Buggy = ImplModel::armv8BuggyRtl();
  ImplModel Good = ImplModel::armv8Silicon();
  unsigned BugWitnesses = 0;
  for (const Execution &X : Suite.Tests) {
    // A correct implementation never exhibits a Forbid test.
    EXPECT_FALSE(Good.consistent(X));
    // The buggy RTL exhibits at least one.
    BugWitnesses += Buggy.consistent(X);
  }
  EXPECT_GT(BugWitnesses, 0u);
}

TEST(RtlBugTest, TxnOrderOnlyWitnessShape) {
  // The witness the suite finds, hand-built: T0 writes the flag then a
  // release store to x; T1's whole-thread transaction reads the flag's
  // initial value and writes x coherence-after T0's store. Only the
  // lifted ob cycle (TxnOrder) forbids it.
  ExecutionBuilder B;
  EventId Wm = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Wx = B.write(0, 0, MemOrder::Release, 1);
  EventId Rm = B.read(1, 1); // reads the initial value of m
  EventId WxT = B.write(1, 0, MemOrder::NonAtomic, 2);
  B.co(Wx, WxT);
  B.txn({Rm, WxT});
  (void)Wm;
  Execution X = B.build();

  Armv8Model Tm;
  ConsistencyResult C = Tm.check(X);
  ASSERT_FALSE(C.Consistent);
  EXPECT_EQ(C.FailedAxiom, "TxnOrder");
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("armv8/+baseline");
  EXPECT_TRUE(Baseline->consistent(X));
  EXPECT_TRUE(ImplModel::armv8BuggyRtl().consistent(X));
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  EXPECT_TRUE(isMinimallyInconsistent(X, Tm, V));
}

TEST(RtlBugTest, BuggyRtlIsWeakerThanSpec) {
  // Whatever the spec allows, the buggy RTL allows (dropping an axiom
  // only adds behaviours) — checked on the Allow suite.
  Armv8Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("armv8/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  ForbidSuite Suite = synthesizeForbid(Tm, *Baseline, V, 3, 60.0);
  std::vector<Execution> Allow = relaxationsOf(Suite.Tests, V);
  ImplModel Buggy = ImplModel::armv8BuggyRtl();
  for (const Execution &X : Allow)
    if (!(X.Po | X.Rf).isAcyclic())
      continue; // the impl model is load-buffering-free
    else
      EXPECT_TRUE(Buggy.consistent(X) || !Armv8Model().consistent(X));
}

} // namespace
