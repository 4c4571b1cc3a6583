//===- minimize_test.cpp - Counterexample shrinking ----------------------------==//

#include "metatheory/Minimize.h"

#include "TestGraphs.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(MinimizeTest, ShrinksToMinimal) {
  // SB+txns plus an irrelevant extra read: minimisation must strip the
  // read and produce a member of the Forbid set.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.read(2, 0); // irrelevant
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();

  X86Model M;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ASSERT_FALSE(M.consistent(X));
  ASSERT_FALSE(isMinimallyInconsistent(X, M, V));

  Execution Min = minimizeInconsistent(X, M, V);
  EXPECT_FALSE(M.consistent(Min));
  EXPECT_TRUE(isMinimallyInconsistent(Min, M, V));
  EXPECT_LT(Min.size(), X.size());
}

TEST(MinimizeTest, AlreadyMinimalIsFixedPoint) {
  // The truly minimal TxnCancelsRMW witness: an exclusive pair with only
  // the write transactional (the §8.1 double-box shape shrinks to this).
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.rmw(R, W);
  B.txn({W});
  Execution X = B.build();
  Armv8Model M;
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  ASSERT_TRUE(isMinimallyInconsistent(X, M, V));
  Execution Min = minimizeInconsistent(X, M, V);
  EXPECT_TRUE(Min == X);
}

TEST(MinimizeTest, DoubleBoxShrinksToSingleBox) {
  Execution X = shapes::rmwAcrossTxns(false);
  Armv8Model M;
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  ASSERT_FALSE(M.consistent(X));
  Execution Min = minimizeInconsistent(X, M, V);
  EXPECT_TRUE(isMinimallyInconsistent(Min, M, V));
  // One transaction survives; the rmw still crosses its boundary.
  EXPECT_EQ(Min.numTxns(), 1u);
  EXPECT_FALSE(Min.Rmw.isEmpty());
}

TEST(MinimizeTest, InvariantRestrictsShrinking) {
  // Minimise an SC violation while requiring at least four events: the
  // invariant stops event removal below the floor.
  Execution X = shapes::iriw();
  ScModel M;
  Vocabulary V = Vocabulary::forArch(Arch::SC);
  ASSERT_FALSE(M.consistent(X));
  Execution Min = minimizeInconsistent(
      X, M, V, [](const Execution &Y) { return Y.size() >= 6; });
  EXPECT_FALSE(M.consistent(Min));
  EXPECT_GE(Min.size(), 6u);
}

TEST(MinimizeTest, MinimisedWitnessStaysExhibitedByBuggyRtl) {
  // The DMB-fixed Example 1.1 execution minimised within "the buggy RTL
  // still exhibits it": the result is a Forbid-style witness separating
  // spec from RTL.
  Execution X = shapes::lockElisionConcrete(/*FixedSpinlock=*/true);
  Armv8Model Spec;
  std::unique_ptr<MemoryModel> Buggy = ModelRegistry::parse("armv8/-TxnOrder");
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  ASSERT_FALSE(Spec.consistent(X));
  ASSERT_TRUE(Buggy->consistent(X));

  Execution Min = minimizeInconsistent(
      X, Spec, V,
      [&Buggy](const Execution &Y) { return Buggy->consistent(Y); });
  EXPECT_FALSE(Spec.consistent(Min));
  EXPECT_TRUE(Buggy->consistent(Min));
  EXPECT_LE(Min.size(), X.size());
}

} // namespace
