//===- WorkQueue.h - Work-stealing task pool --------------------*- C++ -*-==//
///
/// \file
/// A generic work-stealing task pool parameterised over the task type.
/// Two instantiations drive the repo's parallel layers:
///
///  * `WorkQueue<BasePrefix>` — the synthesis search (synth/Conformance):
///    tasks are *canonical-DFS prefixes* of the base-execution space
///    (a complete skeleton plus the first K event-labelling decisions).
///    The prefixes held by the pool partition the unexplored base space
///    exactly at every instant: a task is either *split* — replaced by one
///    child per admissible label of event K, which
///    `ExecutionEnumerator::expandPrefix` derives from the same choice
///    generator the sequential DFS uses — or *run* to completion via
///    `ExecutionEnumerator::forEachBasePrefixed`. Splitting is driven by
///    the consumer (typically until `estimateCost` falls under a target),
///    so K adapts to the local branching structure.
///
///  * `WorkQueue<ServerTask>` — the resident query server
///    (server/QueryServer): a *persistent* pool whose tasks are
///    (batch, request index) pairs of every in-flight batch; requests are
///    monolithic (never split), so the pool degenerates to a balanced
///    distributor with stealing.
///
/// Each worker owns a deque: locally produced children are pushed and
/// popped LIFO (depth-first locality, bounded memory), and an idle worker
/// steals the *oldest* — shallowest, hence biggest — unexpanded task from
/// the fullest victim deque. Operations are guarded by one pool mutex;
/// tasks are coarse, so the lock is not contended. Termination is exact:
/// `pop` blocks until a task is available and only returns false when
/// every deque is empty and no popped task is still being processed
/// (`finish` not yet called), or the pool was cancelled (e.g. on budget
/// exhaustion).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_WORKQUEUE_H
#define TMW_ENUMERATE_WORKQUEUE_H

#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace tmw {

/// Per-worker load telemetry for one pool run (one entry per worker).
/// Consumers surface it through `ForbidSuite::Workers` and
/// `BatchTelemetry::Workers`.
struct WorkerLoad {
  /// Wall-clock seconds this worker spent processing tasks.
  double BusySeconds = 0;
  /// Tasks processed / tasks split into children / tasks obtained by
  /// stealing. Query batches never split, and one-shot engine batches
  /// (an atomic request counter, no pool) never steal.
  uint64_t Tasks = 0, Splits = 0, Steals = 0;
  /// Work units this worker visited: base executions for the synthesis
  /// search, candidate executions for the query engine.
  uint64_t BasesVisited = 0;
};

/// Work-stealing pool of \p Task values. Thread-safe; one instance per
/// parallel search — or, in persistent mode, one per resident server: a
/// persistent pool never reports exhaustion (an empty pool
/// parks its workers until `submit` feeds it or `cancel` shuts it down),
/// so tasks from many concurrent batches can flow through one set of
/// long-lived workers.
template <class Task> class WorkQueue {
public:
  explicit WorkQueue(unsigned NumWorkers, bool Persistent = false)
      : Persistent(Persistent) {
    assert(NumWorkers > 0 && "pool needs at least one worker");
    Deques.resize(NumWorkers);
  }

  /// Deal a root task round-robin across the worker deques (front-insert,
  /// so each owner's LIFO pop walks its seeds in the order they were
  /// dealt). Call before the workers start (not thread-safe against
  /// pop/push).
  void seed(Task P) {
    // Front-insert so each deque's *back* is its earliest seed: the
    // owner's LIFO pop then walks its share in seeding order (for the
    // synthesis search: thread-rich skeletons first — the front-loaded
    // discovery order of Fig. 7).
    Deques[SeedCursor].push_front(std::move(P));
    SeedCursor = (SeedCursor + 1) % Deques.size();
  }

  /// Thread-safe task injection while workers are running — the
  /// persistent-pool feed (a non-persistent pool may use it too, but its
  /// workers race exhaustion). Deals round-robin like `seed`, but
  /// back-inserted: a worker pops the *newest* submission of its own
  /// deque first, and thieves take the oldest — same discipline as
  /// split-produced children.
  void submit(Task P) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Deques[SubmitCursor].push_back(std::move(P));
      SubmitCursor = (SubmitCursor + 1) % Deques.size();
    }
    Cv.notify_one();
  }

  /// Get the next task for \p Worker: own deque LIFO first, otherwise
  /// steal the oldest task from the fullest other deque (\p WasSteal
  /// reports which). Blocks while the pool is momentarily empty but some
  /// worker still holds a task it may split. Returns false when the space
  /// is exhausted or `cancel()` was called; a *persistent* pool never
  /// exhausts — its workers park here until `submit` or `cancel`.
  bool pop(unsigned Worker, Task &Out, bool &WasSteal) {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      if (Cancelled)
        return false;
      // Own deque: newest first — descend depth-first, keeping the deque
      // shallow and leaving the big old tasks for thieves.
      std::deque<Task> &Own = Deques[Worker];
      if (!Own.empty()) {
        Out = std::move(Own.back());
        Own.pop_back();
        ++InFlight;
        WasSteal = false;
        return true;
      }
      // Steal: oldest task of the fullest victim (shallowest tasks cover
      // the most work, so one steal buys the longest independence).
      unsigned Victim = static_cast<unsigned>(Deques.size());
      size_t Best = 0;
      for (unsigned D = 0; D < Deques.size(); ++D)
        if (Deques[D].size() > Best) {
          Best = Deques[D].size();
          Victim = D;
        }
      if (Victim < Deques.size()) {
        Out = std::move(Deques[Victim].front());
        Deques[Victim].pop_front();
        ++InFlight;
        WasSteal = true;
        return true;
      }
      // Globally empty: done only once no in-flight task can still split
      // — unless persistent, where empty just means "park until fed".
      if (InFlight == 0 && !Persistent) {
        Cv.notify_all();
        return false;
      }
      Cv.wait(Lock);
    }
  }

  /// Push a child task produced by splitting \p Worker's current task.
  void push(unsigned Worker, Task P) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Deques[Worker].push_back(std::move(P));
    }
    Cv.notify_one();
  }

  /// Mark \p Worker's current task fully processed (run or split). Every
  /// successful `pop` must be paired with exactly one `finish`.
  void finish(unsigned Worker) {
    (void)Worker;
    std::lock_guard<std::mutex> Lock(Mu);
    assert(InFlight > 0 && "finish without a matching pop");
    if (--InFlight == 0)
      Cv.notify_all(); // possible termination: wake everyone to re-check
  }

  /// Abort: wake every blocked worker and make all pops return false.
  /// Tasks still queued are dropped.
  void cancel() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Cancelled = true;
    }
    Cv.notify_all();
  }

  bool cancelled() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Cancelled;
  }

private:
  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::deque<Task>> Deques;
  /// Tasks popped but not yet finished; termination needs it zero.
  unsigned InFlight = 0;
  unsigned SeedCursor = 0;
  unsigned SubmitCursor = 0;
  bool Cancelled = false;
  /// Persistent pools park on empty instead of terminating.
  const bool Persistent = false;
};

} // namespace tmw

#endif // TMW_ENUMERATE_WORKQUEUE_H
