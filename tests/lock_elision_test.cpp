//===- lock_elision_test.cpp - Lock elision checking (§8.3) -------------------==//

#include "TestGraphs.h"
#include "metatheory/LockElision.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// The abstract Fig. 10 execution: normal CR incrementing x vs elided CR
/// storing to x, with the mutual-exclusion-violating rf/co pattern.
Execution fig10Abstract() {
  ExecutionBuilder B;
  EventId L = B.lockCall(0, EventKind::Lock);
  EventId Rx = B.read(0, 0);
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId U = B.lockCall(0, EventKind::Unlock);
  EventId Lt = B.lockCall(1, EventKind::TxLock);
  EventId WxT = B.write(1, 0, MemOrder::NonAtomic, 1);
  EventId Ut = B.lockCall(1, EventKind::TxUnlock);
  B.cr({L, Rx, Wx, U});
  B.cr({Lt, WxT, Ut});
  B.co(WxT, Wx); // final x = 2, the elided store in between
  return B.build();
}

TEST(CrOrderTest, Fig10AbstractViolatesSerialisation) {
  Execution X = fig10Abstract();
  EXPECT_FALSE(holdsCrOrder(X));
  // But the memory part is architecturally fine.
  EXPECT_TRUE(ModelRegistry::parse("armv8/+baseline")->consistent(X));
}

TEST(CrOrderTest, SerialisedRegionsPass) {
  ExecutionBuilder B;
  EventId L = B.lockCall(0, EventKind::Lock);
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId U = B.lockCall(0, EventKind::Unlock);
  EventId Lt = B.lockCall(1, EventKind::TxLock);
  EventId Rx = B.read(1, 0);
  EventId Ut = B.lockCall(1, EventKind::TxUnlock);
  B.cr({L, Wx, U});
  B.cr({Lt, Rx, Ut});
  B.rf(Wx, Rx); // the elided CR runs entirely after the normal one
  EXPECT_TRUE(holdsCrOrder(B.build()));
}

TEST(ElideTest, Armv8MappingShape) {
  Execution Y = elideLocks(fig10Abstract(), Arch::Armv8, false);
  // L -> LDAXR;STXR (2), body 2, U -> STLR (1); Lt -> read m (1), body 1.
  EXPECT_EQ(Y.size(), 7u);
  EXPECT_EQ(Y.Rmw.numPairs(), 1u);
  // The elided side is one transaction containing the lock read.
  EXPECT_EQ(Y.numTxns(), 1u);
  EXPECT_EQ(Y.transactional().size(), 2u);
  // Acquire-exclusive read; release unlock store.
  EventId Rm = *Y.Rmw.domain().begin();
  EXPECT_TRUE(Y.event(Rm).isAcquire());
}

TEST(ElideTest, FixedMappingAddsDmb) {
  Execution Y = elideLocks(fig10Abstract(), Arch::Armv8, true);
  EXPECT_EQ(Y.size(), 8u);
  EXPECT_EQ(Y.fences(FenceKind::Dmb).size(), 1u);
}

TEST(ElideTest, X86MappingShape) {
  Execution Y = elideLocks(fig10Abstract(), Arch::X86, false);
  // L -> test read + locked RMW (3), body 2, U -> store (1), Lt -> read
  // (1), body 1.
  EXPECT_EQ(Y.size(), 8u);
  EXPECT_EQ(Y.Rmw.numPairs(), 1u);
}

TEST(ElideTest, PowerMappingShape) {
  Execution Y = elideLocks(fig10Abstract(), Arch::Power, false);
  // L -> lwarx;stwcx.;isync (3), body 2, U -> sync;store (2), Lt -> read
  // (1), body 1, Ut -> nothing: 9 events — exactly the bound the paper
  // uses for its Power lock-elision query (Table 2).
  EXPECT_EQ(Y.size(), 9u);
  EXPECT_EQ(Y.fences(FenceKind::ISync).size(), 1u);
  EXPECT_EQ(Y.fences(FenceKind::Sync).size(), 1u);
}

TEST(ElideTest, CompletionsRespectLockProtocol) {
  Execution Skeleton = elideLocks(fig10Abstract(), Arch::Armv8, false);
  std::vector<Execution> Completions = lockVarCompletions(Skeleton);
  ASSERT_FALSE(Completions.empty());
  LocId M = 1; // x=0, lock variable appended
  for (const Execution &Y : Completions) {
    EXPECT_EQ(Y.checkWellFormed(), nullptr);
    for (EventId R : Y.reads() & Y.atLocation(M)) {
      EventSet Srcs = Y.Rf.restrictRange(EventSet::singleton(R)).domain();
      for (EventId W : Srcs)
        EXPECT_EQ(Y.event(W).WrittenValue, 0)
            << "a lock read observed a taken lock";
    }
  }
}

TEST(ElisionCheckTest, Armv8CounterexampleFound) {
  // Table 2: lock elision is unsound on ARMv8 — found quickly (63s for
  // Memalloy; our explicit search needs a few seconds at most).
  Armv8Model Tm;
  ElisionResult R = checkLockElision(
      Tm, *ModelRegistry::parse("armv8/+baseline"), Arch::Armv8, false, 7,
      300.0);
  ASSERT_TRUE(R.CounterexampleFound);
  EXPECT_FALSE(holdsCrOrder(R.Abstract));
  EXPECT_TRUE(Tm.consistent(R.Concrete));
  // The search order is pinned: the witness is found after exactly this
  // many abstract and concrete checks.
  EXPECT_EQ(R.AbstractChecked, 214u);
  EXPECT_EQ(R.ConcreteChecked, 41u);
}

TEST(ElisionCheckTest, Armv8FixedSpinlockSound) {
  // Table 2: with the DMB appended, no counterexample at the same bound.
  Armv8Model Tm;
  ElisionResult R = checkLockElision(
      Tm, *ModelRegistry::parse("armv8/+baseline"), Arch::Armv8, true, 7,
      300.0);
  EXPECT_FALSE(R.CounterexampleFound)
      << R.Abstract.dump() << R.Concrete.dump();
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.AbstractChecked, 519u);
  EXPECT_EQ(R.ConcreteChecked, 170u);
}

TEST(ElisionCheckTest, X86Sound) {
  // Table 2 reports a >48h timeout with no counterexample for x86; our
  // bounded search is exhaustive at this scale and confirms soundness.
  X86Model Tm;
  ElisionResult R = checkLockElision(
      Tm, *ModelRegistry::parse("x86/+baseline"), Arch::X86, false, 7, 300.0);
  EXPECT_FALSE(R.CounterexampleFound)
      << R.Abstract.dump() << R.Concrete.dump();
  EXPECT_EQ(R.AbstractChecked, 519u);
  EXPECT_EQ(R.ConcreteChecked, 330u);
}

TEST(ElisionCheckTest, TheFig10WitnessIsAmongThoseFound) {
  // The automatically found ARMv8 counterexample matches the hand-built
  // Example 1.1 consistency verdicts.
  Armv8Model Tm;
  Execution Concrete = shapes::lockElisionConcrete(false);
  EXPECT_TRUE(Tm.consistent(Concrete));
  Execution Fixed = shapes::lockElisionConcrete(true);
  EXPECT_FALSE(Tm.consistent(Fixed));
}

} // namespace
