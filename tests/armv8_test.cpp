//===- armv8_test.cpp - ARMv8 with proposed transactions (Fig. 8, §6) ---------==//

#include "TestGraphs.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(Armv8Test, AllowsStoreBuffering) {
  Armv8Model M;
  EXPECT_TRUE(M.consistent(shapes::storeBuffering()));
}

TEST(Armv8Test, DmbForbidsStoreBuffering) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::Dmb);
  B.read(0, 1);
  B.write(1, 1, MemOrder::NonAtomic, 1);
  B.fence(1, FenceKind::Dmb);
  B.read(1, 0);
  Armv8Model M;
  EXPECT_FALSE(M.consistent(B.build()));
}

TEST(Armv8Test, AllowsMessagePassingPlain) {
  Armv8Model M;
  EXPECT_TRUE(M.consistent(shapes::messagePassing()));
}

TEST(Armv8Test, ReleaseAcquireForbidsMessagePassing) {
  Armv8Model M;
  EXPECT_FALSE(M.consistent(
      shapes::messagePassing(MemOrder::Release, MemOrder::Acquire)));
}

TEST(Armv8Test, OneSidedOrderingLeavesMessagePassingObservable) {
  // Acquire on the reader orders the two loads but leaves the writer's
  // stores free to reorder — and dually for a release write alone. Both
  // one-sided variants stay observable; only the rel/acq pair is
  // forbidden (previous test).
  Armv8Model M;
  EXPECT_TRUE(M.consistent(
      shapes::messagePassing(MemOrder::NonAtomic, MemOrder::Acquire)));
  EXPECT_TRUE(M.consistent(
      shapes::messagePassing(MemOrder::Release, MemOrder::NonAtomic)));
}

TEST(Armv8Test, AllowsLoadBufferingWithoutDeps) {
  Armv8Model M;
  EXPECT_TRUE(M.consistent(shapes::loadBuffering(false)));
}

TEST(Armv8Test, DataDepsForbidLoadBuffering) {
  Armv8Model M;
  EXPECT_FALSE(M.consistent(shapes::loadBuffering(true)));
}

TEST(Armv8Test, MulticopyAtomicityForbidsIriwWithAcquires) {
  // Unlike Power, ARMv8 is multicopy-atomic: IRIW with acquire loads is
  // forbidden.
  Armv8Model M;
  EXPECT_FALSE(M.consistent(shapes::iriw(MemOrder::Acquire)));
}

TEST(Armv8Test, AllowsIriwPlain) {
  Armv8Model M;
  EXPECT_TRUE(M.consistent(shapes::iriw()));
}

TEST(Armv8Test, IsbWithAddrPoOrdersReads) {
  // MP variant: reader has addr;po into an ISB, then the stale read —
  // the (addr;po);[ISB];po;[R] piece of dob forbids it when the writer
  // uses a DMB.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::Dmb);
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(1, 1);
  EventId Rz = B.read(1, 2); // address depends on Ry
  B.fence(1, FenceKind::Isb);
  EventId Rx = B.read(1, 0); // stale
  B.write(2, 2, MemOrder::NonAtomic, 1); // make z shared
  B.rf(Wy, Ry);
  B.addr(Ry, Rz);
  (void)Rx;
  Armv8Model M;
  EXPECT_FALSE(M.consistent(B.build()));
}

//===----------------------------------------------------------------------===
// TM additions (§6.1) and the §6.2/§1.1 findings.
//===----------------------------------------------------------------------===

TEST(Armv8TmTest, TfenceForbidsStoreBufferingAroundTransactions) {
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();
  Armv8Model Tm;
  EXPECT_FALSE(Tm.consistent(X));
  EXPECT_TRUE(ModelRegistry::parse("armv8/+baseline")->consistent(X));
}

TEST(Armv8TmTest, TxnCancelsRmwAcrossBoundary) {
  Armv8Model Tm;
  ConsistencyResult R = Tm.check(shapes::rmwAcrossTxns(false));
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "TxnCancelsRMW");
  EXPECT_TRUE(Tm.consistent(shapes::rmwAcrossTxns(true)));
}

TEST(Armv8TmTest, StrongIsolation) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.co(W1, W2);
  B.rf(W1, R); // observes the intermediate transactional value
  B.txn({W1, W2});
  Armv8Model Tm;
  EXPECT_FALSE(Tm.consistent(B.build()));
}

TEST(Armv8TmTest, Example11LockElisionBugReproduced) {
  // The headline finding: the mutual-exclusion-violating execution of
  // Example 1.1 is CONSISTENT under ARMv8+TM — lock elision with the
  // recommended spinlock is unsound.
  Execution X = shapes::lockElisionConcrete(/*FixedSpinlock=*/false);
  Armv8Model Tm;
  EXPECT_TRUE(Tm.consistent(X));
}

TEST(Armv8TmTest, Example11FixedByDmb) {
  // Appending a DMB to lock() forbids the counterexample (§1.1).
  Execution X = shapes::lockElisionConcrete(/*FixedSpinlock=*/true);
  Armv8Model Tm;
  ConsistencyResult R = Tm.check(X);
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "TxnOrder");
}

TEST(Armv8TmTest, AppendixBVariantReproduced) {
  // Appendix B: an external load observing an intermediate write of the
  // locked critical region.
  Execution X = shapes::lockElisionConcrete(/*FixedSpinlock=*/false,
                                            /*LoadVariant=*/true);
  Armv8Model Tm;
  EXPECT_TRUE(Tm.consistent(X));

  Execution Fixed = shapes::lockElisionConcrete(/*FixedSpinlock=*/true,
                                                /*LoadVariant=*/true);
  EXPECT_FALSE(Tm.consistent(Fixed));
}

TEST(Armv8TmTest, BuggyRtlAllowsTxnOrderViolation) {
  // §6.2: a configuration with TxnOrder dropped (the RTL prototype bug)
  // admits executions the architectural model forbids. The DMB-fixed
  // Example 1.1 execution fails exactly TxnOrder, so it separates the
  // architectural model from the buggy RTL.
  Execution X = shapes::lockElisionConcrete(/*FixedSpinlock=*/true);
  Armv8Model Tm;
  EXPECT_FALSE(Tm.consistent(X));
  EXPECT_TRUE(ModelRegistry::parse("armv8/-TxnOrder")->consistent(X));
}

TEST(Armv8TmTest, TransactionFreeExecutionsUnchanged) {
  Armv8Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("armv8/+baseline");
  for (const Execution &X :
       {shapes::storeBuffering(), shapes::messagePassing(),
        shapes::loadBuffering(true), shapes::iriw(MemOrder::Acquire)}) {
    EXPECT_EQ(Tm.consistent(X), Baseline->consistent(X));
  }
}

} // namespace
