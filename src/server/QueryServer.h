//===- QueryServer.h - The long-lived query server --------------*- C++ -*-==//
///
/// \file
/// The resident request/response server over the batch query engine — the
/// herd7-style interactive flow for repeated-query workloads (the same
/// corpus checked against many model×ablation specs, per commit, per
/// bench sweep) that one-shot `litmus_tool` runs pay process startup and
/// re-parsing for on every batch.
///
/// A `QueryServer` keeps resident across batches:
///  * the shared litmus corpus (`litmus/Library.h`, one parse per
///    process);
///  * a `SessionCache` of parsed DSL programs (content-addressed by
///    source text — entries can never go stale) and resolved spec sets
///    (models, canonical spellings and compiled plan per spec list);
///  * the worker pool: `Jobs` persistent worker threads over one
///    *persistent-mode* `WorkQueue` (workers park on the empty pool and
///    wake when a batch's tasks are submitted), plus one
///    `ExecutionAnalysis` arena per worker.
///
/// Two entry layers share that pool:
///  * the *blocking* API (`runBatch`/`serveLine`) — one batch submitted
///    and awaited per call, for in-process callers (tests, benches);
///  * the *concurrent* API (`submitBatch`/`cancelBatch`) — many batches
///    in flight at once, each tagged with an owner-chosen id; tasks of
///    rival batches interleave freely on the pool, but every response
///    belongs to exactly one batch and batches complete independently.
///    This is what the poll-based connection multiplexer
///    (server/Multiplexer.h), the one server loop, drives: one batch
///    stream per connection, all multiplexed over this one pool and
///    cache.
///
/// Wire form: each batch is one `tmw-query-batch-v1` document on a single
/// line (NDJSON framing; `requestsToJsonLine` emits it); each answer is
/// one `tmw-query-verdicts-v1` document — **byte-for-byte identical** to
/// what a one-shot `litmus_tool --json` run prints for the same requests
/// and jobs count, because both paths drive the same `BatchRun` request
/// evaluation and neither the caches nor the scheduling (blocking or
/// concurrent, however many rival batches) can change a verdict. A
/// malformed batch line yields an error document (`batchErrorToJson`),
/// never process death.
///
/// `serveLine` and the multiplexer take a batch line's parse-error
/// document and a batch's verdicts document from `parseBatch` and
/// `verdictsDocument`, so the two cannot drift apart. Framing, the line bound and every transport live
/// in server/Multiplexer.h and server/Transport.h; this class is
/// transport-free and driven in-process by the tests.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SERVER_QUERYSERVER_H
#define TMW_SERVER_QUERYSERVER_H

#include "query/QueryEngine.h"
#include "query/SessionCache.h"
#include "store/VerdictStore.h"

#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>

namespace tmw {

/// Server configuration.
struct ServerOptions {
  /// Resident pool workers (always at least one worker thread; the
  /// serving/transport threads never evaluate requests themselves).
  unsigned Jobs = 1;
  /// Append the timing/telemetry appendix to every verdicts document
  /// (forfeits byte-identity with one-shot runs, like --telemetry).
  bool Telemetry = false;
  /// Program-cache bound (see SessionCache).
  size_t MaxCachedPrograms = SessionCache::kDefaultMaxPrograms;
  /// Optional persistent verdict store shared by every batch of every
  /// connection (store/VerdictStore.h; caller-owned, must outlive the
  /// server). Concurrent lookups and the single guarded append path make
  /// one store safe under the multiplexer's rival connections, and the
  /// verdict-neutrality contract keeps every byte stream identical to a
  /// store-less run.
  VerdictStore *Store = nullptr;
};

/// Lifetime counters of one server (cache stats included).
struct ServerStats {
  /// Batches served / requests evaluated across them.
  uint64_t Batches = 0, Requests = 0;
  /// Malformed batch lines answered with an error document.
  uint64_t BadBatches = 0;
  /// Batches cancelled mid-flight (client disconnected).
  uint64_t CancelledBatches = 0;
  SessionCache::Stats Cache;
  /// Verdict-store lifetime counters (all zero when no store is attached;
  /// `HasStore` disambiguates "no store" from "store never touched").
  bool HasStore = false;
  StoreCounters Store;
};

class ServerBatch; // internal: one concurrently-scheduled batch

/// One pool task: request \p Index of \p Batch. Tagging every task with
/// its batch (hence its connection) is what keeps concurrent clients'
/// verdict streams from ever intermixing: a worker evaluating a task
/// writes only into that batch's response slot.
struct ServerTask {
  ServerBatch *Batch = nullptr;
  size_t Index = 0;
};

/// The resident query session: construct once, serve many batches.
///
/// Thread-safety: `serveLine`/`runBatch`/`submitBatch`/`cancelBatch` are
/// safe to call from any thread, concurrently — the pool interleaves all
/// in-flight batches.
class QueryServer {
public:
  explicit QueryServer(ServerOptions Opts = {});
  /// All submitted batches must have completed (the multiplexer drains
  /// before returning; `runBatch` blocks until its batch is done).
  ~QueryServer();
  QueryServer(const QueryServer &) = delete;
  QueryServer &operator=(const QueryServer &) = delete;

  /// Evaluate one parsed batch on the resident pool and block until it
  /// completes; responses in request order, deterministic and equal to a
  /// one-shot `QueryEngine::runAll`.
  std::vector<CheckResponse> runBatch(std::span<const CheckRequest> Requests,
                                      BatchTelemetry *Telemetry = nullptr);

  /// Serve one batch line: parse (`requestsFromJson` — the schema'd
  /// document, a bare array, or a single request), evaluate, serialise.
  /// Malformed input returns an error document instead of throwing.
  std::string serveLine(std::string_view Line);

  /// Completion callback of a concurrently submitted batch: the
  /// responses (request order) and the batch telemetry. Runs on a pool
  /// worker thread (on the submitting thread for empty batches) — hand
  /// off, don't block.
  using BatchDone =
      std::function<void(std::vector<CheckResponse> &&, BatchTelemetry &&)>;

  /// Submit \p Requests for concurrent evaluation and return immediately
  /// with a nonzero batch id (0 for an empty batch, completed inline).
  /// \p Window bounds how many of this batch's requests sit in the pool
  /// at once (0 = all of them); each retiring request feeds the next, so
  /// rival batches' requests interleave instead of queueing behind one
  /// corpus-sized batch. The requests are copied; for large resident
  /// callers prefer moving.
  uint64_t submitBatch(std::vector<CheckRequest> Requests, BatchDone OnDone,
                       unsigned Window = 0);

  /// Best-effort cancel of an in-flight batch (client gone): requests
  /// not yet started are skipped, in-progress ones finish. The batch
  /// still completes — `OnDone` still fires (with partial/empty
  /// responses, which the owner discards) — so completion accounting
  /// stays exact. Unknown/already-completed ids are ignored.
  void cancelBatch(uint64_t BatchId);

  /// Parse one batch line (`requestsFromJson`) where it lies, without a
  /// copy of it. A malformed line returns false with \p ErrorDoc set to
  /// its error document.
  bool parseBatch(std::string_view Line, std::vector<CheckRequest> &Requests,
                  std::string &ErrorDoc);

  /// The error document answering a batch line that is not evaluated
  /// (malformed, or over a transport's line bound), counted in `stats()`.
  std::string refuseBatch(const std::string &Reason);

  /// The verdicts document of a completed batch, with the telemetry
  /// appendix when the server was configured for it.
  std::string verdictsDocument(std::span<const CheckResponse> Responses,
                               const BatchTelemetry &Telemetry) const;

  ServerStats stats() const;
  unsigned jobs() const { return Opts.Jobs; }

private:
  void workerMain(unsigned Worker);
  uint64_t submitSpan(std::span<const CheckRequest> Requests,
                      std::vector<CheckRequest> Owned, BatchDone OnDone,
                      unsigned Window);

  ServerOptions Opts;
  SessionCache Cache;
  /// The persistent pool: workers park on empty, tasks of all in-flight
  /// batches interleave (each tagged with its batch).
  WorkQueue<ServerTask> Pool;
  /// One persistent analysis arena per worker; slot W is touched only by
  /// worker W.
  std::vector<std::optional<ExecutionAnalysis>> Arenas;
  std::vector<std::thread> Threads;

  /// In-flight concurrent batches by id (guarded by Mu). Entries own the
  /// batch state; the worker that completes a batch erases it.
  mutable std::mutex Mu;
  std::unordered_map<uint64_t, std::unique_ptr<ServerBatch>> Active;
  uint64_t NextBatchId = 0;

  ServerStats S;
};

} // namespace tmw

#endif // TMW_SERVER_QUERYSERVER_H
