//===- enumerator_test.cpp - Exhaustive execution enumeration (§4.2) ----------==//

#include "enumerate/Enumerator.h"

#include "execution/Builder.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

#include <set>

using namespace tmw;

namespace {

uint64_t countBases(const Vocabulary &V, unsigned N) {
  ExecutionEnumerator E(V, N);
  uint64_t Count = 0;
  E.forEachBase([&Count](Execution &) {
    ++Count;
    return true;
  });
  return Count;
}

TEST(EnumeratorTest, TwoEventX86Bases) {
  // Two events, x86 vocabulary. The location filter requires >= 2
  // accesses and >= 1 write per location, fences cannot be boundary
  // events, so every base has both events on one location:
  //   1 thread (W;W, W;R, R;W with each rf/co choice) and
  //   2 threads similarly.
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  uint64_t N = countBases(V, 2);
  // Enumerate by hand: shapes WW (2 co orders... co fixed by po? both
  // orders are distinct executions), WR (rf: init or W), RW; single- and
  // two-thread skeletons; plus rmw pairing variants on same-thread RW.
  EXPECT_GT(N, 10u);
  EXPECT_LT(N, 60u);
}

TEST(EnumeratorTest, BasesAreWellFormedAndCanonical) {
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 3);
  uint64_t Count = 0;
  E.forEachBase([&](Execution &X) {
    EXPECT_EQ(X.checkWellFormed(), nullptr);
    // Canonical skeleton: thread sizes non-increasing.
    unsigned Prev = X.size();
    for (unsigned T = 0; T < X.numThreads(); ++T) {
      unsigned Size = X.ofThread(T).size();
      EXPECT_LE(Size, Prev);
      Prev = Size;
    }
    // No transactions at base level.
    EXPECT_TRUE(X.transactional().empty());
    ++Count;
    return true;
  });
  EXPECT_GT(Count, 0u);
}

TEST(EnumeratorTest, EveryLocationSharedAndWritten) {
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 4);
  E.forEachBase([&](Execution &X) {
    for (unsigned L = 0; L < X.numLocations(); ++L) {
      EventSet Acc = X.atLocation(static_cast<LocId>(L));
      EXPECT_GE(Acc.size(), 2u);
      EXPECT_FALSE((Acc & X.writes()).empty());
    }
    return true;
  });
}

TEST(EnumeratorTest, FencesAreInterior) {
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  ExecutionEnumerator E(V, 3);
  E.forEachBase([&](Execution &X) {
    for (EventId F : X.fences()) {
      EXPECT_FALSE(
          X.Po.restrictRange(EventSet::singleton(F)).domain().empty());
      EXPECT_FALSE(X.Po.successors(F).empty());
    }
    return true;
  });
}

TEST(EnumeratorTest, AbortStopsEnumeration) {
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 4);
  uint64_t Count = 0;
  bool Finished = E.forEachBase([&Count](Execution &) {
    ++Count;
    return Count < 5;
  });
  EXPECT_FALSE(Finished);
  EXPECT_EQ(Count, 5u);
}

TEST(EnumeratorTest, TxnPlacementsOverTwoEventThread) {
  // One thread of two events: placements are {a}, {b}, {ab}, {a}{b}.
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 2);
  ExecutionBuilder B;
  B.read(0, 0);
  B.write(0, 0, MemOrder::NonAtomic, 1);
  Execution X = B.build();
  std::set<std::vector<int>> Seen;
  E.forEachTxnPlacement(X, [&](Execution &Y) {
    Seen.insert({Y.Txn[0], Y.Txn[1]});
    return true;
  });
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(EnumeratorTest, TxnPlacementRestoresState) {
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 2);
  ExecutionBuilder B;
  B.read(0, 0);
  B.write(1, 0, MemOrder::NonAtomic, 1);
  Execution X = B.build();
  E.forEachTxnPlacement(X, [](Execution &) { return true; });
  EXPECT_TRUE(X.transactional().empty());
}

TEST(EnumeratorTest, CppAtomicTxnsOnlyOverNonAtomics) {
  Vocabulary V = Vocabulary::forArch(Arch::Cpp);
  ExecutionEnumerator E(V, 2);
  ExecutionBuilder B;
  EventId R = B.read(0, 0, MemOrder::Relaxed);
  B.write(1, 0, MemOrder::NonAtomic, 1);
  Execution X = B.build();
  bool SawAtomicOverAtomic = false;
  E.forEachTxnPlacement(X, [&](Execution &Y) {
    if (Y.Txn[R] != kNoClass && ((Y.AtomicTxns >> Y.Txn[R]) & 1))
      SawAtomicOverAtomic = true;
    return true;
  });
  EXPECT_FALSE(SawAtomicOverAtomic);
}

TEST(EnumeratorTest, Armv8VocabularyHasAnnotations) {
  Vocabulary V = Vocabulary::forArch(Arch::Armv8);
  ExecutionEnumerator E(V, 2);
  bool SawAcquire = false, SawRelease = false;
  E.forEachBase([&](Execution &X) {
    for (unsigned Ev = 0; Ev < X.size(); ++Ev) {
      SawAcquire |= X.event(Ev).isRead() && X.event(Ev).isAcquire();
      SawRelease |= X.event(Ev).isWrite() && X.event(Ev).isRelease();
    }
    return true;
  });
  EXPECT_TRUE(SawAcquire);
  EXPECT_TRUE(SawRelease);
}

TEST(EnumeratorTest, PowerEnumeratesDependencies) {
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  ExecutionEnumerator E(V, 3);
  bool SawAddr = false, SawData = false, SawCtrl = false;
  E.forEachBase([&](Execution &X) {
    SawAddr |= !X.Addr.isEmpty();
    SawData |= !X.Data.isEmpty();
    SawCtrl |= !X.Ctrl.isEmpty();
    return !(SawAddr && SawData && SawCtrl);
  });
  EXPECT_TRUE(SawAddr && SawData && SawCtrl);
}

TEST(EnumeratorTest, BaseStreamsArePinned) {
  // Order and content of the base streams the Forbid synthesis walks:
  // FNV-1a over each base's `Execution::hash`, in enumeration order.
  struct Stream {
    Arch A;
    unsigned Events;
    uint64_t Count;
    uint64_t Digest;
  };
  for (const Stream &S : {Stream{Arch::X86, 4, 2658, 0x6131863fcce560ebull},
                          Stream{Arch::Power, 3, 1692, 0xec5fbf2863adecaaull},
                          Stream{Arch::Armv8, 3, 13360, 0xd66d35fb9446d985ull},
                          Stream{Arch::Cpp, 3, 8376, 0x3d0112c9d2a5983dull}}) {
    ExecutionEnumerator E(Vocabulary::forArch(S.A), S.Events);
    uint64_t H = 0xcbf29ce484222325ull, Count = 0;
    E.forEachBase([&](Execution &X) {
      H ^= X.hash();
      H *= 0x100000001b3ull;
      ++Count;
      return true;
    });
    EXPECT_EQ(Count, S.Count) << archName(S.A);
    EXPECT_EQ(H, S.Digest) << archName(S.A);
  }
}

TEST(EnumeratorTest, NoDuplicateBases) {
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator E(V, 3);
  std::set<uint64_t> Hashes;
  uint64_t Count = 0;
  E.forEachBase([&](Execution &X) {
    Hashes.insert(X.hash());
    ++Count;
    return true;
  });
  EXPECT_EQ(Hashes.size(), Count);
}

} // namespace
