//===- relaxation_test.cpp - The ⊏ order and canonicalisation (§4.2) ----------==//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "enumerate/Relaxation.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace tmw;

/// The canonical and concrete encodings as first written, one heap-built
/// encoding per renaming: the oracle for the fixed-buffer encoder. Every
/// suite digest and perfbench reference is a hash of these bytes.
namespace reference {

/// Serialise with explicit thread and location renamings applied.
std::vector<uint8_t> encodeWith(const Execution &X,
                                const std::vector<unsigned> &ThreadPerm,
                                const std::vector<unsigned> &LocPerm) {
  // New event order: threads in permuted order, po order within.
  unsigned N = X.size();
  std::vector<EventId> NewOrder;
  for (unsigned NT = 0; NT < ThreadPerm.size(); ++NT) {
    unsigned OldT = ThreadPerm[NT];
    std::vector<EventId> Es;
    for (unsigned E = 0; E < N; ++E)
      if (X.event(E).Thread == OldT)
        Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    NewOrder.insert(NewOrder.end(), Es.begin(), Es.end());
  }
  std::vector<int> NewIdOf(N, -1);
  for (unsigned I = 0; I < NewOrder.size(); ++I)
    NewIdOf[NewOrder[I]] = static_cast<int>(I);

  std::vector<uint8_t> Enc;
  Enc.push_back(static_cast<uint8_t>(N));
  // Transaction classes renumbered by first occurrence in the new order.
  std::vector<int> TxnMap(kMaxTxns, -1), CrMap(kMaxEvents, -1);
  int NextTxn = 0, NextCr = 0;
  for (EventId Old : NewOrder) {
    const Event &Ev = X.event(Old);
    Enc.push_back(static_cast<uint8_t>(Ev.Kind));
    Enc.push_back(static_cast<uint8_t>(
        Ev.Loc < 0 ? 255 : LocPerm[static_cast<unsigned>(Ev.Loc)]));
    Enc.push_back(static_cast<uint8_t>(Ev.Order));
    Enc.push_back(static_cast<uint8_t>(Ev.Fence));
    int T = X.Txn[Old];
    if (T != kNoClass && TxnMap[T] == -1)
      TxnMap[T] = NextTxn++;
    Enc.push_back(static_cast<uint8_t>(T == kNoClass ? 255 : TxnMap[T]));
    Enc.push_back(static_cast<uint8_t>(
        T != kNoClass && ((X.AtomicTxns >> T) & 1) ? 1 : 0));
    int C = X.Cr[Old];
    if (C != kNoClass && CrMap[C] == -1)
      CrMap[C] = NextCr++;
    Enc.push_back(static_cast<uint8_t>(C == kNoClass ? 255 : CrMap[C]));
  }
  // Thread boundaries.
  for (EventId Old : NewOrder)
    Enc.push_back(static_cast<uint8_t>(X.event(Old).Thread));

  for (const Relation *Rel :
       {&X.Po, &X.Rf, &X.Co, &X.Addr, &X.Data, &X.Ctrl, &X.Rmw})
    for (unsigned NewA = 0; NewA < N; ++NewA) {
      uint64_t Row = 0;
      EventId OldA = NewOrder[NewA];
      for (EventId OldB : Rel->successors(OldA))
        Row |= uint64_t(1) << NewIdOf[OldB];
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        Enc.push_back(static_cast<uint8_t>(Row >> (8 * Byte)));
    }
  return Enc;
}

std::vector<uint8_t> canonicalEncoding(const Execution &X) {
  unsigned NumThreads = X.numThreads();
  unsigned NumLocs = X.numLocations();

  // Candidate thread permutations: only permutations preserving
  // non-increasing size order can produce the canonical skeleton.
  std::vector<unsigned> ThreadIds(NumThreads);
  std::iota(ThreadIds.begin(), ThreadIds.end(), 0);
  std::vector<unsigned> Sizes(NumThreads, 0);
  for (unsigned E = 0; E < X.size(); ++E)
    ++Sizes[X.event(E).Thread];
  std::sort(ThreadIds.begin(), ThreadIds.end(),
            [&](unsigned A, unsigned B) {
              if (Sizes[A] != Sizes[B])
                return Sizes[A] > Sizes[B];
              return A < B;
            });

  std::vector<uint8_t> Best;
  std::vector<unsigned> ThreadPerm = ThreadIds;
  // Permute within equal-size groups only.
  std::sort(ThreadPerm.begin(), ThreadPerm.end());
  do {
    bool SizeOrdered = true;
    for (unsigned I = 1; I < ThreadPerm.size(); ++I)
      if (Sizes[ThreadPerm[I - 1]] < Sizes[ThreadPerm[I]])
        SizeOrdered = false;
    if (!SizeOrdered)
      continue;
    std::vector<unsigned> LocPerm(NumLocs);
    std::iota(LocPerm.begin(), LocPerm.end(), 0);
    std::vector<unsigned> Inverse(NumLocs);
    do {
      for (unsigned I = 0; I < NumLocs; ++I)
        Inverse[LocPerm[I]] = I;
      std::vector<uint8_t> Enc = encodeWith(X, ThreadPerm, Inverse);
      if (Best.empty() || Enc < Best)
        Best = Enc;
    } while (std::next_permutation(LocPerm.begin(), LocPerm.end()));
  } while (std::next_permutation(ThreadPerm.begin(), ThreadPerm.end()));

  return Best;
}

std::vector<uint8_t> concreteEncoding(const Execution &X) {
  std::vector<unsigned> ThreadPerm(X.numThreads());
  std::iota(ThreadPerm.begin(), ThreadPerm.end(), 0);
  std::vector<unsigned> LocPerm(X.numLocations());
  std::iota(LocPerm.begin(), LocPerm.end(), 0);
  return encodeWith(X, ThreadPerm, LocPerm);
}

uint64_t canonicalHash(const Execution &X) {
  std::vector<uint8_t> Enc = reference::canonicalEncoding(X);
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Enc) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace reference

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

/// Compares the library's encodings of each execution with the
/// reference's, reporting the first few mismatches in full.
struct EncodingOracle {
  unsigned Checked = 0, Mismatches = 0;

  void check(const Execution &X) {
    ++Checked;
    if (canonicalEncoding(X) == reference::canonicalEncoding(X) &&
        concreteEncoding(X) == reference::concreteEncoding(X) &&
        canonicalHash(X) == reference::canonicalHash(X))
      return;
    if (++Mismatches <= 3)
      ADD_FAILURE() << "encoding differs from the reference\n" << X.dump();
  }
};

TEST(CanonicalTest, EncodingsMatchReferenceOnSearchSpaces) {
  // Every base and placement of the synthesis searches up to x86
  // |E| = 4, Power, ARMv8 and C++ |E| = 3: the transaction classes and
  // atomic{} flags of the C++ placements, the dependencies of Power and
  // ARMv8.
  EncodingOracle O;
  struct Space {
    Arch A;
    unsigned MaxEvents;
  };
  for (Space Sp : {Space{Arch::X86, 4}, Space{Arch::Power, 3},
                   Space{Arch::Armv8, 3}, Space{Arch::Cpp, 3}}) {
    Vocabulary V = Vocabulary::forArch(Sp.A);
    for (unsigned N = 1; N <= Sp.MaxEvents; ++N) {
      ExecutionEnumerator Enum(V, N);
      Enum.forEachBase([&](Execution &Base) {
        O.check(Base);
        return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
          O.check(X);
          return true;
        });
      });
    }
  }
  EXPECT_GT(O.Checked, 10000u);
  EXPECT_EQ(O.Mismatches, 0u);
}

TEST(CanonicalTest, EncodingsMatchReferenceOnCorpusCandidates) {
  // The corpus candidates (wider programs), then the candidates of two
  // programs with critical regions, which the encoding renumbers by first
  // occurrence: locked and elided regions on both threads.
  EncodingOracle O;
  for (const CorpusEntry &E : sharedCorpus())
    forEachCandidate(E.Prog, [&](const Candidate &C) {
      O.check(C.X);
      return true;
    });
  EXPECT_GT(O.Checked, 400u);
  unsigned WithRegions = 0;
  for (const char *Source : {R"(name Regions
thread 0
  lock
  store x 1
  load y
  unlock
  txlock
  store y 1
  txunlock
thread 1
  lock
  store y 2
  load x
  unlock
)",
                             R"(name ElidedPair
thread 0
  txlock
  load x
  store y 1
  txunlock
thread 1
  txlock
  load y
  store x 1
  txunlock
)"}) {
    ParseResult R = parseProgram(Source);
    ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
    forEachCandidate(R.Prog, [&](const Candidate &C) {
      O.check(C.X);
      WithRegions += C.X.numCrs() > 0;
      return true;
    });
  }
  EXPECT_GT(WithRegions, 10u);
  EXPECT_EQ(O.Mismatches, 0u);
}

TEST(CanonicalTest, EncodingsMatchReferenceAtTheEventBound) {
  // The longest encoding: kMaxEvents events over four equal threads (all
  // 24 thread orders and 24 location renamings tried), with rf, co, a
  // dependency and two transactions, one of them atomic{}.
  ExecutionBuilder B;
  std::vector<EventId> Writes, FirstReads;
  for (unsigned T = 0; T < 4; ++T) {
    LocId Own = static_cast<LocId>(T), Next = static_cast<LocId>((T + 1) % 4);
    Writes.push_back(B.write(T, Own, MemOrder::NonAtomic, 1));
    EventId R = B.read(T, Next);
    FirstReads.push_back(R);
    B.data(R, B.write(T, Own, MemOrder::NonAtomic, 2));
    for (unsigned I = 3; I < kMaxEvents / 4; ++I)
      B.read(T, Own);
  }
  for (unsigned T = 0; T < 4; ++T)
    B.rf(Writes[(T + 1) % 4], FirstReads[T]);
  for (unsigned T = 0; T < 4; ++T)
    B.co(Writes[T], Writes[T] + 2);
  B.txn({Writes[0], FirstReads[0]});
  B.txn({Writes[2], FirstReads[2]}, /*Atomic=*/true);
  Execution X = B.build();
  ASSERT_EQ(X.size(), kMaxEvents);
  EncodingOracle O;
  O.check(X);
  EXPECT_EQ(canonicalEncoding(X).size(), 1 + 64 * kMaxEvents);
  EXPECT_EQ(O.Mismatches, 0u);

  // Threads 0 and 2 only: the empty thread 1 takes part in no renaming.
  ExecutionBuilder G;
  EventId W = G.write(0, 0, MemOrder::NonAtomic, 1);
  G.read(0, 1);
  G.write(2, 1, MemOrder::NonAtomic, 1);
  G.rf(W, G.read(2, 0));
  O.check(G.build());
  EXPECT_EQ(O.Mismatches, 0u);
}

} // namespace
