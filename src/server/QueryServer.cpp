//===- QueryServer.cpp - The long-lived query server ---------------------------==//

#include "server/QueryServer.h"

#include "litmus/Library.h"
#include "query/QueryIO.h"

#include <atomic>
#include <condition_variable>

using namespace tmw;

/// One concurrently-scheduled batch over the resident pool. Owned by
/// `QueryServer::Active` while in flight; the worker that retires the
/// last task erases it (after firing OnDone). All cross-worker state is
/// either inside `Run` (its own emit lock) or atomic.
class tmw::ServerBatch {
public:
  ServerBatch(uint64_t Id, std::vector<CheckRequest> Owned,
              std::span<const CheckRequest> Requests, unsigned NumWorkers,
              SessionCache *Cache, VerdictStore *Store,
              QueryServer::BatchDone OnDone, unsigned Window)
      : Id(Id), Owned(std::move(Owned)), Requests(Requests),
        Run(Requests, NumWorkers, {.Cache = Cache, .Store = Store}),
        OnDone(std::move(OnDone)),
        Outstanding(Requests.size()),
        NextToSeed(Window == 0 ? Requests.size()
                               : std::min<size_t>(Window, Requests.size())) {}

  const uint64_t Id;
  std::vector<CheckRequest> Owned; ///< storage when the batch owns its requests
  std::span<const CheckRequest> Requests;
  BatchRun Run;
  QueryServer::BatchDone OnDone;
  /// Cancelled batches skip evaluation of not-yet-started tasks; the
  /// bookkeeping still runs so completion stays exact.
  std::atomic<bool> Cancelled{false};
  /// Tasks not yet fully retired; the worker that drops it to zero owns
  /// completion (and may delete the batch).
  std::atomic<size_t> Outstanding;
  /// Next request index to feed the pool (windowed incremental seeding:
  /// at most the initial window is in the pool at once, each retiring
  /// task feeds one more).
  std::atomic<size_t> NextToSeed;

  /// How many tasks the submitter seeds up front.
  size_t initialWindow() const { return NextToSeed.load(); }
};

QueryServer::QueryServer(ServerOptions Opts)
    : Opts(Opts), Cache(Opts.MaxCachedPrograms),
      Pool(std::max(1u, Opts.Jobs), /*Persistent=*/true),
      Arenas(std::max(1u, Opts.Jobs)) {
  this->Opts.Jobs = std::max(1u, Opts.Jobs);
  // Touch the shared corpus now so the first batch doesn't pay its parse.
  (void)sharedCorpus();
  // Workers are born once and live until destruction, parked on the
  // empty pool between batches. Even Jobs == 1 gets a worker thread: the
  // multiplexer's loop thread must never block on evaluation itself.
  Threads.reserve(this->Opts.Jobs);
  for (unsigned W = 0; W < this->Opts.Jobs; ++W)
    Threads.emplace_back(&QueryServer::workerMain, this, W);
}

QueryServer::~QueryServer() {
  Pool.cancel();
  for (std::thread &Th : Threads)
    Th.join();
}

void QueryServer::workerMain(unsigned Worker) {
  ServerTask T;
  bool Stolen = false;
  while (Pool.pop(Worker, T, Stolen)) {
    ServerBatch *B = T.Batch;
    B->Run.runOne(T.Index, Worker, Arenas[Worker], Stolen,
                  B->Cancelled.load(std::memory_order_relaxed));
    // Feed the next request of this batch under its window.
    size_t Next = B->NextToSeed.fetch_add(1, std::memory_order_relaxed);
    if (Next < B->Requests.size())
      Pool.submit({B, Next});
    // The last task to retire completes the batch: collect, fire OnDone,
    // erase. fetch_sub(acq_rel) orders every worker's touches before the
    // completing worker's collection.
    if (B->Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      BatchTelemetry Tele;
      std::vector<CheckResponse> Responses = B->Run.take(Tele);
      BatchDone Done = std::move(B->OnDone);
      std::unique_ptr<ServerBatch> Owned;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = Active.find(B->Id);
        Owned = std::move(It->second);
        Active.erase(It);
      }
      if (Done)
        Done(std::move(Responses), std::move(Tele));
    }
    Pool.finish(Worker);
  }
}

uint64_t QueryServer::submitSpan(std::span<const CheckRequest> Requests,
                                 std::vector<CheckRequest> Owned,
                                 BatchDone OnDone, unsigned Window) {
  size_t N = Requests.size();
  if (N == 0) {
    // Nothing to schedule: complete inline on the submitting thread.
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++S.Batches;
    }
    if (OnDone)
      OnDone({}, BatchTelemetry{});
    return 0;
  }
  uint64_t Id;
  ServerBatch *B;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = ++NextBatchId;
    auto Batch = std::make_unique<ServerBatch>(
        Id, std::move(Owned), Requests, Opts.Jobs, &Cache, Opts.Store,
        std::move(OnDone), Window);
    B = Batch.get();
    Active.emplace(Id, std::move(Batch));
    ++S.Batches;
    S.Requests += N;
  }
  // Seed the initial window; each retiring task feeds one more.
  // After the last submit below the batch may complete (and be deleted)
  // at any moment, so B is not touched past this loop.
  size_t Initial = B->initialWindow();
  for (size_t I = 0; I < Initial; ++I)
    Pool.submit({B, I});
  return Id;
}

uint64_t QueryServer::submitBatch(std::vector<CheckRequest> Requests,
                                  BatchDone OnDone, unsigned Window) {
  std::vector<CheckRequest> Owned = std::move(Requests);
  std::span<const CheckRequest> Span(Owned);
  return submitSpan(Span, std::move(Owned), std::move(OnDone), Window);
}

void QueryServer::cancelBatch(uint64_t BatchId) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Active.find(BatchId);
  if (It == Active.end())
    return;
  It->second->Cancelled.store(true, std::memory_order_relaxed);
  ++S.CancelledBatches;
}

std::vector<CheckResponse>
QueryServer::runBatch(std::span<const CheckRequest> Requests,
                      BatchTelemetry *Telemetry) {
  // The blocking entry: submit (borrowing the caller's requests — we block
  // until completion, so the span stays alive) and wait. Verdicts are
  // identical to a one-shot engine run: same BatchRun request evaluation,
  // caches and scheduling verdict-neutral.
  std::mutex DoneMu;
  std::condition_variable DoneCv;
  bool Done = false;
  std::vector<CheckResponse> Out;
  BatchTelemetry T;
  submitSpan(
      Requests, {},
      [&](std::vector<CheckResponse> &&Responses, BatchTelemetry &&Tele) {
        std::lock_guard<std::mutex> Lock(DoneMu);
        Out = std::move(Responses);
        T = std::move(Tele);
        Done = true;
        // Notify while holding the lock: DoneCv lives on the waiting
        // thread's stack, and the waiter can only destroy it after
        // reacquiring DoneMu — which this worker still holds until the
        // notify has fully finished touching the cv.
        DoneCv.notify_one();
      },
      /*Window=*/0);
  {
    std::unique_lock<std::mutex> Lock(DoneMu);
    DoneCv.wait(Lock, [&] { return Done; });
  }
  if (Telemetry)
    *Telemetry = std::move(T);
  return Out;
}

bool QueryServer::parseBatch(std::string_view Line,
                             std::vector<CheckRequest> &Requests,
                             std::string &ErrorDoc) {
  std::string Error;
  if (requestsFromJson(Line, Requests, &Error))
    return true;
  // Hardening contract: a malformed batch answers with an error
  // document; the session (caches, pool, later batches) lives on.
  ErrorDoc = refuseBatch("batch parse error: " + Error);
  return false;
}

std::string QueryServer::refuseBatch(const std::string &Reason) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.BadBatches;
  }
  return batchErrorToJson(Reason);
}

std::string
QueryServer::verdictsDocument(std::span<const CheckResponse> Responses,
                              const BatchTelemetry &Telemetry) const {
  return responsesToJson(Responses, Opts.Telemetry ? &Telemetry : nullptr);
}

std::string QueryServer::serveLine(std::string_view Line) {
  std::vector<CheckRequest> Requests;
  std::string Doc;
  if (!parseBatch(Line, Requests, Doc))
    return Doc;
  BatchTelemetry T;
  std::vector<CheckResponse> Responses = runBatch(Requests, &T);
  return verdictsDocument(Responses, T);
}

ServerStats QueryServer::stats() const {
  ServerStats Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Out = S;
  }
  Out.Cache = Cache.stats();
  if (Opts.Store) {
    Out.HasStore = true;
    Out.Store = Opts.Store->counters();
  }
  return Out;
}
