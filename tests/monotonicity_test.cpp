//===- monotonicity_test.cpp - Transactional monotonicity (§8.1) --------------==//

#include "TestGraphs.h"
#include "metatheory/Monotonicity.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(AugmentationTest, GrowMergeAndWrap) {
  ExecutionBuilder B;
  EventId A = B.read(0, 0);
  EventId C = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId D = B.read(0, 0);
  B.txn({A});
  B.txn({C});
  Execution X = B.build();
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  std::vector<Execution> Ys = txnAugmentations(X, V);

  bool SawMerge = false, SawGrow = false, SawWrap = false;
  for (const Execution &Y : Ys) {
    SawMerge |= Y.Txn[A] == Y.Txn[C] && Y.Txn[A] != kNoClass;
    SawGrow |= Y.Txn[D] != kNoClass && Y.Txn[D] == Y.Txn[C];
    SawWrap |= Y.Txn[D] != kNoClass && Y.Txn[D] != Y.Txn[C];
  }
  EXPECT_TRUE(SawMerge);
  EXPECT_TRUE(SawGrow);
  EXPECT_TRUE(SawWrap);
  for (const Execution &Y : Ys)
    EXPECT_EQ(Y.checkWellFormed(), nullptr);
}

TEST(AugmentationTest, EveryAugmentationAddsStxnEdges) {
  Execution X = shapes::rmwAcrossTxns(false);
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  Relation Before = X.stxn();
  for (const Execution &Y : txnAugmentations(X, V)) {
    Relation After = Y.stxn();
    EXPECT_TRUE(Before.subsetOf(After));
    EXPECT_GT(After.numPairs(), Before.numPairs());
  }
}

TEST(MonotonicityTest, PowerCounterexampleAtTwoEvents) {
  // Table 2: Power, 2 events, counterexample (TxnCancelsRMW vs
  // coalescing).
  PowerModel M;
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  MonotonicityResult R = checkMonotonicity(M, V, 2, 60.0);
  ASSERT_TRUE(R.CounterexampleFound);
  EXPECT_FALSE(M.consistent(R.X));
  EXPECT_TRUE(M.consistent(R.Y));
  // The counterexample is the §8.1 shape: an rmw crossing transactions.
  EXPECT_FALSE(R.X.Rmw.isEmpty());
  EXPECT_EQ(M.check(R.X).FailedAxiom, "TxnCancelsRMW");
}

TEST(MonotonicityTest, Armv8CounterexampleAtTwoEvents) {
  Armv8Model M;
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  MonotonicityResult R = checkMonotonicity(M, V, 2, 60.0);
  ASSERT_TRUE(R.CounterexampleFound);
  EXPECT_EQ(M.check(R.X).FailedAxiom, "TxnCancelsRMW");
}

TEST(MonotonicityTest, X86HoldsAtSmallBounds) {
  // Table 2: no x86 counterexample up to 6 events; we sweep to 4 here
  // (the bench pushes further).
  X86Model M;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  for (unsigned N = 2; N <= 4; ++N) {
    MonotonicityResult R = checkMonotonicity(M, V, N, 120.0);
    EXPECT_FALSE(R.CounterexampleFound) << "at " << N << " events:\n"
                                        << R.X.dump() << R.Y.dump();
    EXPECT_TRUE(R.Complete);
  }
}

TEST(MonotonicityTest, CppHoldsAtSmallBounds) {
  CppModel M;
  Vocabulary V = Vocabulary::forArch(Arch::Cpp);
  for (unsigned N = 2; N <= 3; ++N) {
    MonotonicityResult R = checkMonotonicity(M, V, N, 120.0);
    EXPECT_FALSE(R.CounterexampleFound) << "at " << N << " events:\n"
                                        << R.X.dump() << R.Y.dump();
  }
}

TEST(MonotonicityTest, PowerWithoutTxnCancelsRmwHolds) {
  // Ablation: TxnCancelsRMW is exactly what breaks monotonicity.
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  MonotonicityResult R = checkMonotonicity(
      *ModelRegistry::parse("power/-TxnCancelsRMW"), V, 2, 60.0);
  EXPECT_FALSE(R.CounterexampleFound);
}

TEST(MonotonicityTest, SpecificCoalescingPairRejected) {
  // Directly: the split §8.1 pair is a counterexample instance.
  Execution Split = shapes::rmwAcrossTxns(false);
  Execution Joined = shapes::rmwAcrossTxns(true);
  for (const MemoryModel *M :
       std::initializer_list<const MemoryModel *>{
           new PowerModel(), new Armv8Model()}) {
    EXPECT_FALSE(M->consistent(Split)) << M->name();
    EXPECT_TRUE(M->consistent(Joined)) << M->name();
    delete M;
  }
}

} // namespace
