//===- relaxation_test.cpp - The ⊏ order and canonicalisation (§4.2) ----------==//

#include "TestGraphs.h"
#include "enumerate/Relaxation.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(RemoveEventTest, RemapsIdsAndEdges) {
  Execution X = shapes::messagePassing();
  // Remove the first write (event 0): the rf edge Wy->Ry survives with
  // shifted ids.
  Execution Y = removeEvent(X, 0);
  EXPECT_EQ(Y.size(), X.size() - 1);
  EXPECT_EQ(Y.checkWellFormed(), nullptr);
  EXPECT_EQ(Y.Rf.numPairs(), 1u);
  EXPECT_TRUE(Y.Rf.contains(0, 1));
}

TEST(RemoveEventTest, CoStaysTotalAfterWriteRemoval) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  EventId W3 = B.write(2, 0, MemOrder::NonAtomic, 3);
  B.co(W1, W2);
  B.co(W2, W3);
  Execution X = B.build();
  Execution Y = removeEvent(X, W2);
  EXPECT_EQ(Y.checkWellFormed(), nullptr);
  EXPECT_TRUE(Y.Co.contains(0, 1)); // W1 before W3 still
}

TEST(RelaxTest, EventRemovalChildrenPresent) {
  Execution X = shapes::storeBuffering();
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  std::vector<Execution> Kids = relaxOneStep(X, V);
  unsigned Size3 = 0;
  for (const Execution &K : Kids)
    Size3 += K.size() == 3;
  EXPECT_EQ(Size3, 4u); // one child per removed event
}

TEST(RelaxTest, TxnShrinkChildren) {
  ExecutionBuilder B;
  EventId A = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId C = B.read(0, 0);
  B.read(1, 0);
  B.txn({A, C});
  Execution X = B.build();
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  unsigned Shrunk = 0;
  for (const Execution &K : relaxOneStep(X, V))
    if (K.size() == X.size() && K.numTxns() == 1 &&
        K.transactional().size() == 1)
      ++Shrunk;
  EXPECT_EQ(Shrunk, 2u); // drop front, drop back
}

TEST(RelaxTest, SingletonTxnVanishes) {
  ExecutionBuilder B;
  EventId A = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({A});
  Execution X = B.build();
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  bool SawTxnFree = false;
  for (const Execution &K : relaxOneStep(X, V))
    SawTxnFree |= K.size() == X.size() && K.transactional().empty();
  EXPECT_TRUE(SawTxnFree);
}

TEST(RelaxTest, Armv8Downgrades) {
  ExecutionBuilder B;
  EventId R = B.read(0, 0, MemOrder::Acquire);
  EventId W = B.write(1, 0, MemOrder::Release, 1);
  B.rf(W, R);
  Execution X = B.build();
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  unsigned Downgrades = 0;
  for (const Execution &K : relaxOneStep(X, V))
    if (K.size() == X.size() &&
        (K.event(0).Order != X.event(0).Order ||
         K.event(1).Order != X.event(1).Order))
      ++Downgrades;
  EXPECT_EQ(Downgrades, 2u); // acq->plain and rel->plain
}

TEST(RelaxTest, DmbDowngradesToHalfBarriers) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::Dmb);
  EventId R = B.read(0, 1);
  B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  (void)W;
  (void)R;
  Execution X = B.build();
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  unsigned Ld = 0, St = 0;
  for (const Execution &K : relaxOneStep(X, V)) {
    if (K.size() != X.size())
      continue;
    Ld += !K.fences(FenceKind::DmbLd).empty();
    St += !K.fences(FenceKind::DmbSt).empty();
  }
  EXPECT_EQ(Ld, 1u);
  EXPECT_EQ(St, 1u);
}

TEST(RelaxTest, CtrlRemovalKeepsForwardClosure) {
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  B.write(0, 1, MemOrder::NonAtomic, 1);
  B.write(0, 1, MemOrder::NonAtomic, 2);
  B.write(1, 0, MemOrder::NonAtomic, 1);
  B.read(1, 1);
  B.ctrl(R, 1); // forward-closes to events 1 and 2
  Execution X = B.build();
  ASSERT_EQ(X.Ctrl.numPairs(), 2u);
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  bool SawSuffix = false;
  for (const Execution &K : relaxOneStep(X, V)) {
    if (K.size() != X.size() || K.Ctrl.numPairs() != 1)
      continue;
    SawSuffix = true;
    EXPECT_EQ(K.checkWellFormed(), nullptr);
    EXPECT_TRUE(K.Ctrl.contains(R, 2)); // later target retained
  }
  EXPECT_TRUE(SawSuffix);
}

TEST(MinimalityTest, SbWithTfenceTxnsIsMinimal) {
  // SB with each write in its own transaction: inconsistent under x86+TM
  // (tfence); every relaxation is consistent.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();
  X86Model Tm;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  EXPECT_TRUE(isMinimallyInconsistent(X, Tm, V));
}

TEST(MinimalityTest, NonMinimalWhenExtraEventPresent) {
  // The same shape plus an unrelated read is inconsistent but not
  // minimal.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.read(2, 0); // extra
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();
  X86Model Tm;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  EXPECT_FALSE(Tm.consistent(X));
  EXPECT_FALSE(isMinimallyInconsistent(X, Tm, V));
}

TEST(MinimalityTest, ConsistentExecutionIsNotMinimal) {
  // A consistent execution is by definition not minimally inconsistent.
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B.read(1, 0);
  B.rf(W, R);
  Vocabulary V = Vocabulary::forArch(Arch::SC);
  EXPECT_FALSE(isMinimallyInconsistent(B.build(), ScModel(), V));
}

TEST(MinimalityTest, StreamingCheckMatchesDefinition) {
  // isMinimallyInconsistent stops at the first inconsistent child. Its
  // verdict must equal the definition over the materialised children —
  // inconsistent, and every relaxOneStep child consistent — on every base
  // and placement, up to the sizes at which each search stays quick.
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  CppModel Cpp;
  struct Case {
    Arch A;
    const MemoryModel *M;
    unsigned MaxEvents;
  };
  for (const Case &C : {Case{Arch::X86, &X86, 4}, Case{Arch::Power, &Power, 3},
                        Case{Arch::Armv8, &Armv8, 2}, Case{Arch::Cpp, &Cpp, 2}}) {
    Vocabulary V = Vocabulary::forArch(C.A);
    unsigned Checked = 0, Minimal = 0;
    auto Check = [&](Execution &X) {
      bool Definition = !C.M->consistent(X);
      for (const Execution &K : relaxOneStep(X, V))
        Definition = Definition && C.M->consistent(K);
      EXPECT_EQ(isMinimallyInconsistent(X, *C.M, V), Definition)
          << C.M->name() << "\n"
          << X.dump();
      ++Checked;
      Minimal += Definition;
      return true;
    };
    for (unsigned N = 2; N <= C.MaxEvents; ++N) {
      ExecutionEnumerator Enum(V, N);
      Enum.forEachBase([&](Execution &Base) {
        Check(Base);
        return Enum.forEachTxnPlacement(Base, Check);
      });
    }
    EXPECT_GT(Checked, 0u) << C.M->name();
    if (C.A == Arch::X86) {
      EXPECT_GT(Minimal, 0u);
    }
  }
}

TEST(CanonicalTest, ThreadRenamingInvariance) {
  // SB is symmetric in its threads and locations: builder order must not
  // matter.
  ExecutionBuilder B1;
  B1.write(0, 0, MemOrder::NonAtomic, 1);
  B1.read(0, 1);
  B1.write(1, 1, MemOrder::NonAtomic, 1);
  B1.read(1, 0);

  ExecutionBuilder B2; // same shape, thread roles swapped
  B2.write(0, 1, MemOrder::NonAtomic, 1);
  B2.read(0, 0);
  B2.write(1, 0, MemOrder::NonAtomic, 1);
  B2.read(1, 1);

  EXPECT_EQ(canonicalHash(B1.build()), canonicalHash(B2.build()));
}

TEST(CanonicalTest, DistinguishesRfStructure) {
  Execution A = shapes::messagePassing();
  Execution B = shapes::messagePassing();
  B.Rf = Relation(B.size()); // drop the rf edge
  EXPECT_NE(canonicalHash(A), canonicalHash(B));
}

TEST(CanonicalTest, LocationRenamingInvariance) {
  ExecutionBuilder B1;
  EventId W = B1.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B1.read(1, 0);
  B1.rf(W, R);
  B1.write(0, 1, MemOrder::NonAtomic, 1);
  B1.read(1, 1);

  ExecutionBuilder B2; // locations swapped
  EventId W2 = B2.write(0, 1, MemOrder::NonAtomic, 1);
  EventId R2 = B2.read(1, 1);
  B2.rf(W2, R2);
  B2.write(0, 0, MemOrder::NonAtomic, 1);
  B2.read(1, 0);

  EXPECT_EQ(canonicalHash(B1.build()), canonicalHash(B2.build()));
}

} // namespace
