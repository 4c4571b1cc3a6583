//===- Conformance.cpp - Conformance-test synthesis ----------------------------==//

#include "synth/Conformance.h"

#include "enumerate/WorkQueue.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

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
  bool processBase(Execution &Base, std::optional<ExecutionAnalysis> &Arena,
                   SearchBuffer &Buf) const {
    ++Buf.BasesVisited;
    if ((Buf.BasesVisited & 0x3ff) == 0 &&
        (secondsSince(Start) > BudgetSeconds ||
         (Pool && Pool->cancelled())))
      return false;
    // The arena is retargeted per base and transaction-invalidated per
    // placement, so base-derived relations (fr, com, fences, ...) are
    // computed once per base and shared by every placement over it.
    if (!Arena)
      Arena.emplace(Base);
    else
      Arena->reset(Base);
    // Forbid tests are consistent under the baseline; the baseline ignores
    // transactions, so this prunes before any placement is tried.
    if (!Baseline.consistent(*Arena))
      return true;
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      ++Buf.PlacementsVisited;
      Arena->invalidateTransactionalState();
      if (Tm.consistent(*Arena))
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
  std::optional<ExecutionAnalysis> Arena;
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
