//===- Conformance.cpp - Conformance-test synthesis ----------------------------==//

#include "synth/Conformance.h"

#include "enumerate/WorkQueue.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace tmw;

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

double secondsSince(TimePoint Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One discovered Forbid test with its dedup/determinism keys.
struct FoundTest {
  Execution X;
  uint64_t Hash;
  double FoundAt;
  /// `concreteEncoding(X)` — total order on symmetry-equivalent finds.
  std::vector<uint8_t> Key;
};

/// Result buffer of one worker. Dedup keeps the
/// least-keyed representative and the earliest discovery time per
/// canonical hash, so the merged output cannot depend on the order in
/// which workers happened to visit the space.
struct SearchBuffer {
  bool Finished = true;
  uint64_t BasesVisited = 0, PlacementsVisited = 0;
  std::vector<FoundTest> Tests;
  std::unordered_map<uint64_t, size_t> Index;
  WorkerLoad Load;

  void record(const Execution &X, double FoundAt) {
    uint64_t H = canonicalHash(X);
    std::vector<uint8_t> Key = concreteEncoding(X);
    auto [It, New] = Index.try_emplace(H, Tests.size());
    if (New) {
      Tests.push_back({X, H, FoundAt, std::move(Key)});
      return;
    }
    FoundTest &T = Tests[It->second];
    if (Key < T.Key) {
      T.X = X;
      T.Key = std::move(Key);
    }
    T.FoundAt = std::min(T.FoundAt, FoundAt);
  }
};

/// The TM verdicts of the placements already checked over one base, so
/// that minimality can read a placement's transaction-only relaxations
/// instead of rebuilding and rechecking them.
///
/// A placement is keyed by its transaction *partition* and atomic{}
/// flags, as three masks over the base's events: in a transaction, first
/// of its transaction in po, first of an atomic{} transaction. Class ids
/// are not part of the key: the placement DFS numbers classes in
/// creation order, `relaxOneStep`'s children in event order. The models
/// read transactions only through `stxn`, `stxnAtomic`, `transactional()`
/// and `atomicTransactional()`, which depend on the partition alone, so a
/// recorded verdict is the verdict of every execution over the same base
/// with that partition.
///
/// Open addressing with generation-stamped slots: `reset` is O(1), and
/// once the table has grown to the largest placement count of the run it
/// allocates nothing.
class PlacementVerdicts {
public:
  struct Key {
    uint64_t InTxn = 0, Starts = 0, AtomicStarts = 0;
    bool operator==(const Key &) const = default;
  };

  /// Start a new base: forget every verdict, record its po neighbours.
  void reset(const Execution &Base) {
    ++Gen;
    Count = 0;
    N = Base.size();
    Prev.fill(-1);
    Next.fill(-1);
    Relation Imm = Base.poImm();
    for (EventId A = 0; A < N; ++A)
      for (EventId B : Imm.successors(A)) {
        Next[A] = static_cast<int>(B);
        Prev[B] = static_cast<int>(A);
      }
  }

  Key keyOf(const Execution &X) const {
    Key K;
    for (unsigned E = 0; E < N; ++E) {
      int C = X.Txn[E];
      if (C == kNoClass)
        continue;
      uint64_t Bit = uint64_t(1) << E;
      K.InTxn |= Bit;
      if (Prev[E] >= 0 && X.Txn[Prev[E]] == C)
        continue;
      K.Starts |= Bit;
      if ((X.AtomicTxns >> C) & 1)
        K.AtomicStarts |= Bit;
    }
    return K;
  }

  void record(const Key &K, bool Consistent) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    Slot &S = find(K);
    if (S.Gen != Gen) {
      S = {K, Gen, Consistent};
      ++Count;
    }
  }

  /// True when one of the transaction-only relaxations of the placement
  /// keyed \p K — each transaction shrunk at either end (a one-event
  /// transaction removed) and, when \p AtomicDowngrades, each atomic{}
  /// transaction downgraded — is recorded inconsistent. Such a placement
  /// is not minimally inconsistent. A child not recorded says nothing.
  bool someTxnChildInconsistent(const Key &K, bool AtomicDowngrades) const {
    for (uint64_t Rest = K.Starts; Rest; Rest &= Rest - 1) {
      unsigned First = static_cast<unsigned>(__builtin_ctzll(Rest));
      unsigned Last = First;
      while (Next[Last] >= 0 && inTxnNotStart(K, Next[Last]))
        Last = static_cast<unsigned>(Next[Last]);
      uint64_t FirstBit = uint64_t(1) << First;
      bool Atomic = K.AtomicStarts & FirstBit;
      if (First == Last) {
        if (inconsistent({K.InTxn & ~FirstBit, K.Starts & ~FirstBit,
                          K.AtomicStarts & ~FirstBit}))
          return true;
      } else {
        uint64_t SecondBit = uint64_t(1) << Next[First];
        Key Front{K.InTxn & ~FirstBit, (K.Starts & ~FirstBit) | SecondBit,
                  Atomic ? (K.AtomicStarts & ~FirstBit) | SecondBit
                         : K.AtomicStarts};
        if (inconsistent(Front) ||
            inconsistent({K.InTxn & ~(uint64_t(1) << Last), K.Starts,
                          K.AtomicStarts}))
          return true;
      }
      if (AtomicDowngrades && Atomic &&
          inconsistent({K.InTxn, K.Starts, K.AtomicStarts & ~FirstBit}))
        return true;
    }
    return false;
  }

private:
  struct Slot {
    Key K;
    uint64_t Gen = 0;
    bool Consistent = false;
  };

  bool inTxnNotStart(const Key &K, int E) const {
    uint64_t Bit = uint64_t(1) << E;
    return (K.InTxn & Bit) && !(K.Starts & Bit);
  }

  static size_t hashOf(const Key &K) {
    uint64_t H = K.InTxn * 0x9e3779b97f4a7c15ull;
    H ^= (K.Starts + (H << 6) + (H >> 2)) * 0xbf58476d1ce4e5b9ull;
    H ^= (K.AtomicStarts + (H << 6) + (H >> 2)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(H ^ (H >> 31));
  }

  /// The slot holding \p K in this generation, else the free slot where
  /// it would go (linear probing; the load stays at most one half).
  const Slot &find(const Key &K) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Gen != Gen || S.K == K)
        return S;
    }
  }
  Slot &find(const Key &K) {
    return const_cast<Slot &>(std::as_const(*this).find(K));
  }

  bool inconsistent(const Key &K) const {
    const Slot &S = find(K);
    return S.Gen == Gen && !S.Consistent;
  }

  void grow() {
    std::vector<Slot> Old(2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Gen == Gen)
        find(S.K) = S;
  }

  /// A power of two in size, never empty.
  std::vector<Slot> Slots = std::vector<Slot>(64);
  size_t Count = 0;
  /// Generation of the current base; slots stamped otherwise are free.
  uint64_t Gen = 1;
  unsigned N = 0;
  /// Immediate po predecessor and successor of each event, -1 if none.
  std::array<int, kMaxEvents> Prev{}, Next{};
};

/// The per-base state one worker reuses across bases: the analysis arena
/// and the verdict table of the placements over the current base.
struct WorkerArena {
  std::optional<ExecutionAnalysis> Analysis;
  PlacementVerdicts Verdicts;
};

/// Shared read-only context of one Forbid search plus the per-base check
/// pipeline every worker runs.
struct ForbidSearch {
  const MemoryModel &Tm;
  const MemoryModel &Baseline;
  ExecutionEnumerator Enum;
  double BudgetSeconds;
  TimePoint Start;
  /// Extra abort signal polled with the budget (pool cancel).
  const WorkQueue<BasePrefix> *Pool = nullptr;

  ForbidSearch(const MemoryModel &Tm, const MemoryModel &Baseline,
               const Vocabulary &V, unsigned NumEvents,
               double BudgetSeconds, TimePoint Start)
      : Tm(Tm), Baseline(Baseline), Enum(V, NumEvents),
        BudgetSeconds(BudgetSeconds), Start(Start) {}

  /// Check every transaction placement over \p Base, recording minimal
  /// Forbid tests into \p Buf. Returns false to abort the enumeration
  /// (budget exhausted or pool cancelled).
  bool processBase(Execution &Base, WorkerArena &W, SearchBuffer &Buf) const {
    ++Buf.BasesVisited;
    if ((Buf.BasesVisited & 0x3ff) == 0 &&
        (secondsSince(Start) > BudgetSeconds ||
         (Pool && Pool->cancelled())))
      return false;
    // The arena is retargeted per base and transaction-invalidated per
    // placement, so base-derived relations (fr, com, fences, ...) are
    // computed once per base and shared by every placement over it.
    std::optional<ExecutionAnalysis> &Arena = W.Analysis;
    if (!Arena)
      Arena.emplace(Base);
    else
      Arena->reset(Base);
    // Forbid tests are consistent under the baseline; the baseline ignores
    // transactions, so this prunes before any placement is tried.
    if (!Baseline.consistent(*Arena))
      return true;
    W.Verdicts.reset(Base);
    bool AtomicDowngrades = Enum.vocabulary().A == Arch::Cpp;
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      ++Buf.PlacementsVisited;
      Arena->invalidateTransactionalState();
      PlacementVerdicts::Key K = W.Verdicts.keyOf(X);
      bool Consistent = Tm.consistent(*Arena);
      W.Verdicts.record(K, Consistent);
      if (Consistent)
        return true;
      // The DFS places every shrink and atomic{} downgrade of a placement
      // before the placement itself, so its transaction-only children are
      // usually recorded already; one recorded inconsistent settles
      // minimality without building a child.
      if (W.Verdicts.someTxnChildInconsistent(K, AtomicDowngrades))
        return true;
      if (!isMinimallyInconsistent(*Arena, Tm, Enum.vocabulary()))
        return true;
      Buf.record(X, secondsSince(Start));
      return true;
    });
  }
};

/// One work-stealing worker: pop prefix tasks; split big ones back into
/// the pool, run small ones to completion.
void runPoolWorker(const ForbidSearch &Search, WorkQueue<BasePrefix> &Q,
                   unsigned W,
                   double SplitTarget, SearchBuffer &Buf) {
  WorkerArena Arena;
  unsigned Num = Search.Enum.numEvents();
  BasePrefix P;
  bool Stolen = false;
  while (Q.pop(W, P, Stolen)) {
    TimePoint T0 = std::chrono::steady_clock::now();
    ++Buf.Load.Tasks;
    Buf.Load.Steals += Stolen;
    if (P.Labels.size() < Num && Search.Enum.estimateCost(P) > SplitTarget) {
      // Reverse push: the LIFO pop then visits the children in the DFS
      // try-order, preserving the search's front-loaded test discovery.
      std::vector<BasePrefix> Children = Search.Enum.expandPrefix(P);
      for (auto It = Children.rbegin(); It != Children.rend(); ++It)
        Q.push(W, std::move(*It));
      ++Buf.Load.Splits;
    } else if (!Search.Enum.forEachBasePrefixed(P, [&](Execution &Base) {
                 return Search.processBase(Base, Arena, Buf);
               })) {
      Buf.Finished = false;
      Q.cancel();
    }
    Buf.Load.BusySeconds += secondsSince(T0);
    Q.finish(W);
  }
  Buf.Load.BasesVisited = Buf.BasesVisited;
}

/// Merge the worker buffers into \p Suite: dedup across workers by
/// canonical hash (least concrete key, earliest find), then sort by hash
/// so representatives *and order* are identical for every worker count.
void mergeBuffers(ForbidSuite &Suite, std::vector<SearchBuffer> &Bufs) {
  std::unordered_map<uint64_t, FoundTest *> Best;
  for (SearchBuffer &B : Bufs) {
    Suite.Complete = Suite.Complete && B.Finished;
    Suite.BasesVisited += B.BasesVisited;
    Suite.PlacementsVisited += B.PlacementsVisited;
    Suite.Workers.push_back(B.Load);
    for (FoundTest &T : B.Tests) {
      auto [It, New] = Best.try_emplace(T.Hash, &T);
      if (New)
        continue;
      FoundTest &Winner = *It->second;
      if (T.Key < Winner.Key)
        It->second = &T;
      It->second->FoundAt = std::min(Winner.FoundAt, T.FoundAt);
    }
  }
  std::vector<FoundTest *> Sorted;
  Sorted.reserve(Best.size());
  for (auto &[H, T] : Best)
    Sorted.push_back(T);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const FoundTest *A, const FoundTest *B) {
              return A->Hash < B->Hash;
            });
  for (FoundTest *T : Sorted) {
    Suite.Tests.push_back(std::move(T->X));
    Suite.FoundAtSeconds.push_back(T->FoundAt);
  }
}

} // namespace

ForbidSuite tmw::synthesizeForbid(const MemoryModel &TmModel,
                                  const MemoryModel &Baseline,
                                  const Vocabulary &V, unsigned NumEvents,
                                  double BudgetSeconds, unsigned Jobs) {
  ForbidSuite Suite;
  Suite.NumEvents = NumEvents;
  auto Start = std::chrono::steady_clock::now();
  ForbidSearch Search(TmModel, Baseline, V, NumEvents, BudgetSeconds, Start);

  unsigned NumWorkers = std::max(1u, Jobs);
  WorkQueue<BasePrefix> Q(NumWorkers);
  double RootCost = 0;
  Search.Enum.forEachSkeleton([&](const std::vector<unsigned> &Sizes) {
    BasePrefix Root{Sizes, {}};
    RootCost += Search.Enum.estimateCost(Root);
    Q.seed(std::move(Root));
  });
  // Split until tasks are ~1/16th of a fair worker share: plenty of
  // stealable slack without drowning the pool in tiny tasks.
  double SplitTarget = std::max(64.0, RootCost / (16.0 * NumWorkers));
  Search.Pool = &Q;
  std::vector<SearchBuffer> Bufs(NumWorkers);
  if (NumWorkers == 1) {
    runPoolWorker(Search, Q, 0, SplitTarget, Bufs[0]);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(NumWorkers);
    for (unsigned W = 0; W < NumWorkers; ++W)
      Threads.emplace_back([&, W] {
        runPoolWorker(Search, Q, W, SplitTarget, Bufs[W]);
      });
    for (std::thread &T : Threads)
      T.join();
  }

  mergeBuffers(Suite, Bufs);
  Suite.SynthesisSeconds = secondsSince(Start);
  return Suite;
}

std::vector<Execution>
tmw::relaxationsOf(const std::vector<Execution> &Forbid,
                   const Vocabulary &V) {
  std::vector<Execution> Out;
  std::unordered_set<uint64_t> Seen;
  for (const Execution &X : Forbid)
    for (const Execution &Child : relaxOneStep(X, V))
      if (Seen.insert(canonicalHash(Child)).second)
        Out.push_back(Child);
  return Out;
}

std::vector<unsigned>
tmw::txnCountHistogram(const std::vector<Execution> &Tests) {
  std::vector<unsigned> Hist;
  for (const Execution &X : Tests) {
    unsigned N = X.numTxns();
    if (Hist.size() <= N)
      Hist.resize(N + 1, 0);
    ++Hist[N];
  }
  return Hist;
}
