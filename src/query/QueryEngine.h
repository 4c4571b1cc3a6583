//===- QueryEngine.h - Evaluating batch litmus queries ----------*- C++ -*-==//
///
/// \file
/// The evaluator behind the request/response API (query/Query.h). For one
/// request it runs the whole stack once: resolve every model spec through
/// the registry, parse the program (or fetch the corpus entry), then
/// enumerate the program's candidate executions **once** and fan each
/// candidate out to all requested models through one shared
/// `ExecutionAnalysis` — so six models cost one enumeration plus six
/// axiom evaluations over memoized relations, not six enumerations. This
/// is the enumerate-once/check-many discipline every frontend previously
/// hand-rolled (or failed to: the old benches re-enumerated per model).
///
/// Batches run on `Jobs` worker threads that claim request indices from
/// one atomic counter (requests never split, so there is nothing to
/// steal; one analysis arena per worker), and results are **streamed in
/// request order**: the callback
/// fires for response i only after responses 0..i-1, whatever order the
/// workers finished in. Verdicts are deterministic — independent of Jobs
/// and of scheduling — because each request is evaluated sequentially by
/// exactly one worker over the fixed candidate enumeration order; only
/// `Seconds` and the telemetry vary run to run.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_QUERYENGINE_H
#define TMW_QUERY_QUERYENGINE_H

#include "execution/ExecutionAnalysis.h"
#include "query/Query.h"
#include "query/SessionCache.h"

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <span>

namespace tmw {

class VerdictStore;

/// How a request's models are evaluated over each candidate.
enum class EvalStrategy : uint8_t {
  /// Compile the request's spec set into one cross-spec evaluation plan
  /// (models/EvalPlan.h): shared obligations are computed once per
  /// candidate and subsumption edges short-circuit whole verdicts. The
  /// default — verdicts are identical to Independent by construction
  /// (pinned by tests/eval_plan_test.cpp and the CI corpus cmp).
  Planned,
  /// Check every model independently through `MemoryModel::consistent`,
  /// sharing only the per-candidate analysis arena — the reference path
  /// the plan is differentially tested against.
  Independent,
};

/// Batch evaluation options.
struct BatchOptions {
  /// Worker threads for `run`/`runAll` (1 = evaluate inline, no threads).
  unsigned Jobs = 1;
  /// The resident caches (parsed programs and spec sets: each distinct
  /// spec list's models, canonical spellings and compiled evaluation
  /// plan) every evaluation resolves through. nullptr = a cache for this
  /// batch alone (`SessionCache(0)`) that keeps spec sets, not parses:
  /// each distinct spec list is resolved, printed and compiled once per
  /// batch, and every source parsed afresh. Caching never changes a
  /// verdict — a cached program or spec set is identical to a rebuilt
  /// one — so resident and per-batch caches produce byte-identical
  /// response JSON.
  SessionCache *Cache = nullptr;
  /// Candidate evaluation strategy (Planned and Independent produce
  /// byte-identical canonical JSON; only the telemetry differs). Planned
  /// always specializes each request's plan to the program's static
  /// vocabulary facts (lint/Lint.h), pre-discharging footprint-disjoint
  /// obligations once per program.
  EvalStrategy Strategy = EvalStrategy::Planned;
  /// Optional persistent verdict store (store/VerdictStore.h) — the
  /// second, cross-process caching tier below the in-memory caches: a
  /// request whose exact content key (program source, canonical specs,
  /// options, engine version) is stored skips enumeration entirely and
  /// answers from disk. Like `Cache`, verdict-neutral by contract:
  /// stored-hit, memory-hit, and cold evaluation emit byte-for-byte
  /// identical canonical JSON. nullptr = no persistence.
  VerdictStore *Store = nullptr;
};

/// One batch in flight — the seam between the engine's evaluation logic
/// and whoever owns the worker threads. The owner schedules every request
/// index exactly once through `runOne`: `QueryEngine::run` starts threads
/// per call that claim indices from one atomic counter, while the
/// resident query server (server/QueryServer.h) interleaves
/// `(batch, request-index)` tasks of many batches over one persistent
/// pool. Request evaluation is the same code either way, and every request
/// resolves its spec set and program through one `SessionCache` (the
/// resident `Opts.Cache` or the batch's own), so verdict bytes cannot
/// depend on which owner — or how many rival batches — scheduled them.
/// Responses stream to the optional callback in request order, whatever
/// order workers finish in; `take` collects them at the end.
class BatchRun {
public:
  /// Evaluation state for \p NumWorkers workers (ids 0..NumWorkers-1);
  /// `Opts.Jobs` is the owner's business and ignored here.
  BatchRun(std::span<const CheckRequest> Requests, unsigned NumWorkers,
           const BatchOptions &Opts,
           std::function<void(const CheckResponse &)> OnResult = nullptr);
  BatchRun(const BatchRun &) = delete;
  BatchRun &operator=(const BatchRun &) = delete;

  /// Evaluate request \p I (exactly once per index, any thread, any
  /// order) on worker \p Worker, whose persistent analysis arena is
  /// \p Arena (created on first use, retargeted per candidate, reusable
  /// across batches). \p Stolen only feeds the load telemetry. \p Skip
  /// marks the index done without evaluating — the cancellation path for
  /// a disconnected client's batch: bookkeeping still completes, the
  /// response stays empty and is discarded by the owner.
  void runOne(size_t I, unsigned Worker,
              std::optional<ExecutionAnalysis> &Arena, bool Stolen = false,
              bool Skip = false);

  /// After every worker returned: the responses (request order) and the
  /// batch telemetry.
  std::vector<CheckResponse> take(BatchTelemetry &T);

  size_t size() const { return Requests.size(); }

private:
  std::span<const CheckRequest> Requests;
  /// The batch's own cache, when the caller attached none.
  std::optional<SessionCache> OwnCache;
  /// The caller's options, with `Cache` pointing at `OwnCache` if unset.
  BatchOptions Opts;
  std::function<void(const CheckResponse &)> OnResult;
  std::vector<CheckResponse> Results;
  /// Responses computed but not yet emitted in order (guarded by EmitMu).
  std::vector<char> Done;
  std::vector<WorkerLoad> Loads;
  size_t NextToEmit = 0;
  std::mutex EmitMu;
  std::chrono::steady_clock::time_point T0;
};

/// Stateless evaluator of `CheckRequest` batches; cheap to construct.
/// (For a long-lived session that keeps threads, arenas, and caches
/// resident across batches, see server/QueryServer.h.)
class QueryEngine {
public:
  explicit QueryEngine(BatchOptions Opts = {}) : Opts(Opts) {}

  /// Evaluate one request in the calling thread: a one-request `runAll`.
  CheckResponse evaluate(const CheckRequest &R) const;

  /// Evaluate \p Requests on `Opts.Jobs` pool workers, streaming each
  /// response to \p OnResult in request order (the callback runs on
  /// whichever worker completes the front of the order — serialise any
  /// shared state yourself, or use `runAll`). Returns the batch
  /// telemetry.
  BatchTelemetry
  run(std::span<const CheckRequest> Requests,
      const std::function<void(const CheckResponse &)> &OnResult) const;

  /// `run`, materialised: all responses in request order (telemetry
  /// optionally reported through \p Telemetry).
  std::vector<CheckResponse>
  runAll(std::span<const CheckRequest> Requests,
         BatchTelemetry *Telemetry = nullptr) const;

private:
  std::vector<CheckResponse>
  runAllInto(std::span<const CheckRequest> Requests,
             const std::function<void(const CheckResponse &)> &OnResult,
             BatchTelemetry &T) const;

  BatchOptions Opts;
};

} // namespace tmw

#endif // TMW_QUERY_QUERYENGINE_H
