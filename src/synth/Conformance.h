//===- Conformance.h - Conformance-test synthesis ---------------*- C++ -*-==//
///
/// \file
/// Synthesis of conformance suites (§4.2, Table 1):
///
///  * the Forbid suite — executions *minimally inconsistent* under a
///    transactional model while consistent under its non-transactional
///    baseline (i.e. exactly the tests that distinguish the TM extension);
///  * the Allow suite — the one-⊏-step relaxations of the Forbid tests
///    (maximally consistent executions), which include "just not enough"
///    synchronisation to be forbidden.
///
/// Search is explicit and exhaustive up to the event bound; a wall-clock
/// budget may stop it early, in which case `Complete` is false — mirroring
/// the timeout column of the paper's Table 1. Discovery timestamps are
/// recorded to reproduce the Fig. 7 distribution.
///
/// The search is parallel (`Jobs > 1`) and *work-stealing*: the
/// canonical-DFS space is decomposed into (skeleton, event-labelling)
/// prefix tasks (`enumerate/WorkQueue.h`) that workers split adaptively
/// until they fall under a target cost and steal from each other when
/// idle, so load balances even though subtree sizes are wildly unequal.
/// Each worker runs with a private `ExecutionAnalysis` arena (reset per
/// base, transaction-state-invalidated per placement) and a private result
/// buffer; models are stateless and shared by const reference.
///
/// Beside its arena each worker keeps a table of the TM verdicts of the
/// placements it has checked over the current base, keyed by transaction
/// partition and atomic{} flags. Minimality reads an inconsistent
/// placement's transaction-only relaxations (each transaction shrunk at
/// either end, and under C++ each atomic{} transaction downgraded) from
/// it before calling `isMinimallyInconsistent`: the placement DFS visits
/// each of them before their parent, and the models read transactions
/// only through the partition, so a recorded verdict is the verdict the
/// full check would compute. One recorded inconsistent child means not
/// minimal; anything else falls back to the full check, so the suite is
/// unchanged (`sharding_differential_test`'s references run the full
/// check on every inconsistent placement).
///
/// The merged output is *deterministic*: the prefix tasks partition the
/// base space exactly, duplicates are collapsed by canonical hash keeping
/// the representative with the least `concreteEncoding` (and the earliest
/// discovery time), and `Tests` is sorted by canonical hash — so whenever
/// the search runs to completion (`Complete == true`), the suite is
/// byte-for-byte identical for every `Jobs` value. A budget-truncated run
/// visits a scheduling-dependent subset and forfeits the guarantee.
/// `tests/sharding_differential_test.cpp` pins both the partition and the
/// determinism against a sequential `forEachBase` reference.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SYNTH_CONFORMANCE_H
#define TMW_SYNTH_CONFORMANCE_H

#include "enumerate/Relaxation.h"
#include "enumerate/WorkQueue.h"

#include <vector>

namespace tmw {

/// The Forbid suite for one event count.
struct ForbidSuite {
  unsigned NumEvents = 0;
  /// False when the time budget stopped the search early.
  bool Complete = true;
  double SynthesisSeconds = 0;
  /// Canonical representatives of the minimally-forbidden executions,
  /// sorted by canonical hash; each class is represented by its least
  /// `concreteEncoding` member, so the vector is byte-for-byte identical
  /// for every `Jobs` value (given a sufficient budget).
  std::vector<Execution> Tests;
  /// Earliest wall-clock second (from search start) each test was found,
  /// aligned with `Tests` (timing data: not deterministic).
  std::vector<double> FoundAtSeconds;
  /// Number of base executions visited and consistency checks performed.
  uint64_t BasesVisited = 0, PlacementsVisited = 0;
  /// Per-worker load balance of this run.
  std::vector<WorkerLoad> Workers;
};

/// Synthesise the Forbid suite: executions with \p NumEvents events that
/// are minimally inconsistent under \p TmModel and consistent under
/// \p Baseline. \p Jobs > 1 runs that many work-stealing worker threads
/// over the prefix-task decomposition of the skeleton space; when the
/// search completes within the budget, the deduplicated, hash-sorted
/// result is identical — including representatives and order — for every
/// Jobs value.
ForbidSuite synthesizeForbid(const MemoryModel &TmModel,
                             const MemoryModel &Baseline,
                             const Vocabulary &V, unsigned NumEvents,
                             double BudgetSeconds = 1e18, unsigned Jobs = 1);

/// The Allow suite: deduplicated one-step relaxations of \p Forbid
/// (all consistent under the TM model by minimality).
std::vector<Execution>
relaxationsOf(const std::vector<Execution> &Forbid, const Vocabulary &V);

/// Count the transactions of each execution (used for the §5.3 breakdown
/// "29% had one transaction, ...").
std::vector<unsigned> txnCountHistogram(const std::vector<Execution> &Tests);

} // namespace tmw

#endif // TMW_SYNTH_CONFORMANCE_H
