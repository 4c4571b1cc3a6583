//===- x86_test.cpp - x86-TSO with transactions (Fig. 5) ----------------------==//

#include "TestGraphs.h"
#include "models/ModelRegistry.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(X86Test, AllowsStoreBuffering) {
  X86Model M;
  EXPECT_TRUE(M.consistent(shapes::storeBuffering()));
}

TEST(X86Test, MfenceForbidsStoreBuffering) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::MFence);
  B.read(0, 1);
  B.write(1, 1, MemOrder::NonAtomic, 1);
  B.fence(1, FenceKind::MFence);
  B.read(1, 0);
  X86Model M;
  ConsistencyResult R = M.check(B.build());
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "Order");
}

TEST(X86Test, LockedRmwForbidsStoreBuffering) {
  // Implementing the first store of each thread as a locked RMW restores
  // SC for the SB shape (implied fences, Fig. 5).
  ExecutionBuilder B;
  EventId R0 = B.read(0, 0);
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.rmw(R0, W0);
  B.read(0, 1);
  EventId R1 = B.read(1, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.rmw(R1, W1);
  B.read(1, 0);
  X86Model M;
  EXPECT_FALSE(M.consistent(B.build()));
}

TEST(X86Test, ForbidsMessagePassingStaleRead) {
  X86Model M;
  EXPECT_FALSE(M.consistent(shapes::messagePassing()));
}

TEST(X86Test, ForbidsLoadBuffering) {
  X86Model M;
  EXPECT_FALSE(M.consistent(shapes::loadBuffering(false)));
}

TEST(X86Test, ForbidsIriw) {
  X86Model M;
  EXPECT_FALSE(M.consistent(shapes::iriw()));
}

TEST(X86Test, ForbidsCoherenceViolations) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.rf(W1, R);
  B.co(W2, W1); // co contradicts po
  X86Model M;
  ConsistencyResult Res = M.check(B.buildUnchecked());
  EXPECT_FALSE(Res.Consistent);
  EXPECT_EQ(Res.FailedAxiom, "Coherence");
}

TEST(X86Test, RmwIsolation) {
  // An external write must not land between an RMW's read and write.
  ExecutionBuilder B;
  EventId R = B.read(0, 0); // reads initial value
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 2);
  B.rmw(R, W);
  EventId WExt = B.write(1, 0, MemOrder::NonAtomic, 1);
  B.co(WExt, W);
  X86Model M;
  ConsistencyResult Res = M.check(B.build());
  EXPECT_FALSE(Res.Consistent);
  EXPECT_EQ(Res.FailedAxiom, "RMWIsol");
}

//===----------------------------------------------------------------------===
// TM additions (highlighted parts of Fig. 5).
//===----------------------------------------------------------------------===

TEST(X86TmTest, TfenceForbidsStoreBufferingAroundTransactions) {
  // SB where each thread's write is inside a transaction: the implicit
  // fence at the transaction exit forbids the stale reads.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();

  X86Model Tm;
  EXPECT_FALSE(Tm.consistent(X));
  // The non-transactional baseline ignores stxn and allows it.
  EXPECT_TRUE(ModelRegistry::parse("x86/+baseline")->consistent(X));
}

TEST(X86TmTest, StrongIsolationEnforced) {
  // Fig. 3(d)-style containment is visible to the TM model only.
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.co(W1, W2);
  B.rf(W1, R);
  B.txn({W1, W2});
  Execution X = B.build();

  X86Model Tm;
  ConsistencyResult Res = Tm.check(X);
  EXPECT_FALSE(Res.Consistent);
  EXPECT_TRUE(ModelRegistry::parse("x86/+baseline")->consistent(X));
}

TEST(X86TmTest, TxnOrderForbidsUnserialisableTransactions) {
  // Two transactions each reading the other's pre-state: no serialisation
  // order exists.
  ExecutionBuilder B;
  EventId Rx = B.read(0, 0);
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(1, 1);
  EventId Wx = B.write(1, 0, MemOrder::NonAtomic, 1);
  B.txn({Rx, Wy});
  B.txn({Ry, Wx});
  Execution X = B.build();

  X86Model Tm;
  EXPECT_FALSE(Tm.consistent(X));
  EXPECT_TRUE(ModelRegistry::parse("x86/+baseline")->consistent(X));
}

TEST(X86TmTest, TransactionFreeExecutionsUnchanged) {
  // §8: the TM model gives the same semantics to transaction-free
  // executions as the original model.
  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  for (const Execution &X :
       {shapes::storeBuffering(), shapes::messagePassing(),
        shapes::loadBuffering(false), shapes::iriw(),
        shapes::messagePassingDep(false)}) {
    EXPECT_EQ(Tm.consistent(X), Baseline->consistent(X));
  }
}

TEST(X86TmTest, AblationFlagsAreIndependent) {
  // The SB+txn shape is forbidden purely by Tfence.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();

  EXPECT_TRUE(ModelRegistry::parse("x86/-tfence")->consistent(X));
  EXPECT_FALSE(
      ModelRegistry::parse("x86/+baseline/+tfence")->consistent(X));
}

TEST(X86TmTest, CommittedTransactionActsAsSingleEvent) {
  // MP where the writer's two stores form one transaction: the reader can
  // not observe y=1 while x is stale, because the transaction's stores
  // become visible together.
  Execution X = shapes::messagePassing();
  X.Txn[0] = 0;
  X.Txn[1] = 0;
  ASSERT_EQ(X.checkWellFormed(), nullptr);
  X86Model Tm;
  EXPECT_FALSE(Tm.consistent(X));
}

} // namespace
