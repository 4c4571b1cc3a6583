//===- QueryEngine.cpp - Evaluating batch litmus queries -----------------------==//

#include "query/QueryEngine.h"

#include "enumerate/Candidates.h"
#include "lint/Lint.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "models/EvalPlan.h"
#include "query/Json.h"
#include "query/QueryIO.h"
#include "query/SessionCache.h"
#include "store/VerdictStore.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace tmw;

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

double secondsSince(TimePoint Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// A request's allowed outcomes, collected without a copy per model: each
/// distinct outcome is interned once, in a flat vector found through a
/// small open-addressing table, and each model records which outcome ids
/// its consistent candidates reach.
class OutcomeSets {
public:
  explicit OutcomeSets(size_t NumModels) : NumModels(NumModels) {}

  /// The id of \p O, interning a copy on first sight.
  uint32_t intern(const Outcome &O) {
    // Keep the table at most half full, so probe runs stay short.
    if (2 * (Distinct.size() + 1) > Slots.size())
      grow();
    uint32_t *Slot = find(O);
    if (*Slot == kEmpty) {
      *Slot = static_cast<uint32_t>(Distinct.size());
      Distinct.push_back(O);
      Reached.resize(Reached.size() + NumModels);
    }
    return *Slot;
  }

  /// Model \p M reached outcome \p Id.
  void add(size_t M, uint32_t Id) { Reached[Id * NumModels + M] = 1; }

  /// Every model's outcomes into its verdict's `AllowedOutcomes`, each
  /// list in `Outcome` order and sized exactly. The ids are sorted once
  /// for all the lists, in the probe table's storage, so no `intern` may
  /// follow.
  void emit(std::vector<ModelVerdict> &Verdicts) {
    std::vector<uint32_t> Order = std::move(Slots);
    Order.resize(Distinct.size());
    for (uint32_t Id = 0; Id < Order.size(); ++Id)
      Order[Id] = Id;
    std::sort(Order.begin(), Order.end(), [this](uint32_t A, uint32_t B) {
      return Distinct[A] < Distinct[B];
    });
    for (size_t M = 0; M < NumModels; ++M) {
      size_t N = 0;
      for (uint32_t Id : Order)
        N += Reached[Id * NumModels + M];
      std::vector<Outcome> &Out = Verdicts[M].AllowedOutcomes;
      Out.reserve(N);
      for (uint32_t Id : Order)
        if (Reached[Id * NumModels + M])
          Out.push_back(Distinct[Id]);
    }
  }

private:
  static constexpr uint32_t kEmpty = ~uint32_t(0);

  static uint64_t hashOf(const Outcome &O) {
    uint64_t H = 1469598103934665603ull;
    auto Mix = [&H](uint64_t V) { H = (H ^ V) * 1099511628211ull; };
    for (const RegValue &R : O.RegValues) {
      Mix(R.Thread);
      Mix(R.Load);
      Mix(static_cast<uint32_t>(R.Value));
    }
    Mix(O.RegValues.size());
    for (int V : O.MemValues)
      Mix(static_cast<uint32_t>(V));
    // FNV's low bits see only the inputs' low bits; fold the high ones
    // down before the table masks them off.
    return H ^ (H >> 29) ^ (H >> 47);
  }

  /// The slot holding \p O, or the empty slot where it belongs.
  uint32_t *find(const Outcome &O) {
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(O) & Mask;; I = (I + 1) & Mask)
      if (Slots[I] == kEmpty || Distinct[Slots[I]] == O)
        return &Slots[I];
  }

  /// Double the table (16 slots at first) and reserve the outcome rows it
  /// admits, so neither vector reallocates per outcome.
  void grow() {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), kEmpty);
    Distinct.reserve(Slots.size() / 2);
    Reached.reserve(Slots.size() / 2 * NumModels);
    for (uint32_t Id = 0; Id < Distinct.size(); ++Id)
      *find(Distinct[Id]) = Id;
  }

  size_t NumModels;
  /// The distinct outcomes, indexed by id (first-sight order).
  std::vector<Outcome> Distinct;
  /// Open-addressing table of ids into `Distinct` (`kEmpty` when free).
  std::vector<uint32_t> Slots;
  /// Row `Id`, column `M`: model M reached outcome Id.
  std::vector<char> Reached;
};

/// The failed axioms of \p M on the analysed candidate \p A, each with
/// its witness events.
std::vector<FailedAxiomInfo> failedAxioms(const MemoryModel &M,
                                          const ExecutionAnalysis &A) {
  CheckReport Report = M.checkAll(A);
  std::vector<FailedAxiomInfo> Out;
  for (const AxiomVerdict &AV : Report.Verdicts) {
    if (AV.Holds)
      continue;
    FailedAxiomInfo &Info = Out.emplace_back();
    Info.Axiom = std::string(AV.Ax->Name);
    for (EventId E : AV.Witness)
      Info.Witness.push_back(E);
  }
  return Out;
}

/// Answer request \p R into \p Resp, a default-constructed response slot,
/// using \p Arena as the per-worker analysis arena (created on first use,
/// retargeted per candidate — the same arena discipline as the synthesis
/// workers). The response is built in place, never copied. \p Cache
/// supplies the request's spec set and parse; it never changes the
/// response. `Seconds` is the caller's.
void evaluateRequest(const CheckRequest &R, CheckResponse &Resp,
                     std::optional<ExecutionAnalysis> &Arena,
                     SessionCache &Cache, EvalStrategy Strategy,
                     VerdictStore *Store) {
  Resp.Name = R.Name;

  // Resolve the spec list up front: a bad spec fails the request before
  // any enumeration work. The set's models, spellings and plan are
  // immutable and shared across threads.
  bool SetHit = false;
  std::shared_ptr<const SpecSet> Set =
      Cache.specs(R.ModelSpecs, &Resp.Error, &SetHit);
  if (!Set)
    return;
  const auto &Models = Set->Models;

  // Resolve the program: inline DSL source or a corpus entry, with its
  // static facts (enumeration caps, plan specialization). The parse (and
  // the shared corpus entry) outlive this evaluation — the shared_ptr
  // keeps an evicted entry alive while we hold it.
  std::shared_ptr<const ParseResult> Parse;
  const Program *P = nullptr;
  ProgramFacts Facts;
  if (!R.Source.empty() && !R.Corpus.empty()) {
    Resp.Error = "request sets both 'source' and 'corpus'";
    return;
  }
  if (!R.Source.empty()) {
    Parse = Cache.program(R.Source, &Facts);
    if (!*Parse) {
      Resp.Error = "parse error: " + Parse->Error;
      Resp.ErrorLine = Parse->ErrorLine;
      return;
    }
    P = &Parse->Prog;
  } else if (!R.Corpus.empty()) {
    const CorpusEntry *E = findCorpusEntry(R.Corpus);
    if (!E) {
      Resp.Error = "unknown corpus entry '" + R.Corpus + "'";
      return;
    }
    P = &E->Prog;
    Facts = computeFacts(*P);
  } else {
    Resp.Error = "empty request: set 'source' or 'corpus'";
    return;
  }
  if (Resp.Name.empty())
    Resp.Name = P->Name;

  // A program with a lint error cannot behave as written (past an
  // enumeration cap, an unbalanced region, a dangling dependency or
  // postcondition, ...): refused with every error, never answered from a
  // partial or silently reduced candidate set. The check precedes the
  // store lookup, so an answer stored before the refusal existed is never
  // served either.
  for (const LintFinding &F : lintProgram(*P).Findings) {
    if (F.Severity != LintSeverity::Error)
      continue;
    if (Resp.Error.empty())
      Resp.ErrorLine = F.Line;
    else
      Resp.Error += "; ";
    Resp.Error += F.Message + " [" + std::string(F.Code) + "]";
  }
  if (!Resp.Error.empty())
    return;

  Resp.Verdicts.resize(Models.size());
  for (size_t M = 0; M < Models.size(); ++M)
    Resp.Verdicts[M].Spec = Set->Canonical[M];

  // Persistent tier: with a verdict store attached, an exact content
  // match (engine version, options, name, canonical specs, full program
  // source) answers from disk before any enumeration. The stored document
  // is the canonical JSON of a previous evaluation, and parse→serialise
  // round-trips byte-exactly (query_io_test), so a stored hit is
  // byte-identical to a cold evaluation.
  std::string StoreKey;
  if (Store) {
    // Corpus entries are keyed by their printed DSL — the same content
    // address an inline submission of the identical program would get.
    std::string CorpusSource;
    std::string_view Source = R.Source;
    if (Source.empty()) {
      CorpusSource = printDsl(*P);
      Source = CorpusSource;
    }
    StoreKey = VerdictStore::makeKey(Resp.Name, Source, Set->Canonical,
                                     R.Explain, R.WantOutcomes,
                                     R.CandidateCap);
    ++Resp.Store.Lookups;
    if (std::optional<std::string> Doc = Store->lookup(StoreKey)) {
      CheckResponse Stored;
      if (std::optional<JsonValue> V = parseJson(*Doc, nullptr);
          V && responseFromJson(*V, Stored)) {
        Stored.Store.Lookups = 1;
        Stored.Store.Hits = 1;
        Resp = std::move(Stored);
        return;
      }
      // Unparseable stored document — unreachable through the checksummed
      // append path; evaluate cold (the resident key blocks re-append).
    }
  }

  // Planned strategy: evaluate through the set's cross-spec plan,
  // specialized to the program's static vocabulary so footprint-disjoint
  // obligations are decided once per program (verdict-neutral by the
  // audited footprint contract).
  const EvalPlan *Plan = nullptr;
  EvalPlan::Scratch Scratch;
  EvalPlan::Specialization Spec;
  if (Strategy == EvalStrategy::Planned) {
    Plan = &Set->Plan;
    (SetHit ? Resp.Plan.CacheHits : Resp.Plan.Compiles) = 1;
    Scratch = Plan->makeScratch();
    Spec = Plan->specialize(Facts);
  }

  // Enumerate the candidates ONCE; fan each one out to every model over
  // one shared analysis, so derived relations (fr, com, fences, ...) are
  // computed once per candidate, not once per (candidate, model). Both
  // strategies collect through this one loop. A candidate's outcome is
  // interned at most once, however many models reach it, and a first
  // forbidden candidate is explained while it is still the one analysed.
  std::optional<OutcomeSets> Outcomes;
  if (R.WantOutcomes)
    Outcomes.emplace(Models.size());
  const char *IllFormed = forEachCandidate(*P, [&](const Candidate &C) {
    if (R.CandidateCap && Resp.Candidates >= R.CandidateCap) {
      Resp.Truncated = true;
      return false;
    }
    int64_t Index = static_cast<int64_t>(Resp.Candidates++);
    if (!Arena)
      Arena.emplace(C.X);
    else
      Arena->reset(C.X);
    bool Satisfies = C.O.satisfies(*P);
    if (Plan)
      Plan->evaluate(*Arena, Scratch, &Spec);
    std::optional<uint32_t> OutcomeId;
    for (size_t M = 0; M < Models.size(); ++M) {
      ModelVerdict &V = Resp.Verdicts[M];
      bool Consistent =
          Plan ? Scratch.consistent(M) : Models[M]->consistent(*Arena);
      if (Consistent) {
        ++V.Consistent;
        V.Allowed |= Satisfies;
        if (Outcomes) {
          if (!OutcomeId)
            OutcomeId = Outcomes->intern(C.O);
          Outcomes->add(M, *OutcomeId);
        }
      } else if (V.FirstForbidden < 0) {
        V.FirstForbidden = Index;
        if (R.Explain)
          V.FailedAxioms = failedAxioms(*Models[M], *Arena);
      }
    }
    return true;
  });

  if (Plan) {
    const EvalPlan::Counters &PC = Scratch.counters();
    Resp.Plan.TermEvals = PC.TermEvals;
    Resp.Plan.TermHits = PC.TermHits;
    Resp.Plan.SpecEvals = PC.SpecEvals;
    Resp.Plan.SpecShortCircuits = PC.SpecShortCircuits;
    Resp.Plan.Discharged = PC.Discharged;
  }

  // Backstop: a program that lints clean yet has an ill-formed shape has
  // behaviours no candidate represents. Answer with the shape's reason,
  // never with verdicts over the other shapes.
  if (IllFormed) {
    Resp.Verdicts.clear();
    Resp.Candidates = 0;
    Resp.Truncated = false;
    Resp.Error = std::string("ill-formed candidate shape (") + IllFormed + ")";
    return;
  }

  if (Outcomes)
    Outcomes->emit(Resp.Verdicts);

  // Persist the cold answer (append + fsync). Error responses are not
  // stored: they can depend on mutable context (the corpus set, registry
  // spellings) rather than on the keyed content alone.
  if (Store && Resp.Error.empty() &&
      Store->append(StoreKey, toJson(Resp)))
    Resp.Store.Appends = 1;
}

} // namespace

BatchRun::BatchRun(std::span<const CheckRequest> Requests,
                   unsigned NumWorkers, const BatchOptions &Opts,
                   std::function<void(const CheckResponse &)> OnResult)
    : Requests(Requests), Opts(Opts), OnResult(std::move(OnResult)),
      Results(Requests.size()), Done(Requests.size(), 0),
      Loads(NumWorkers), T0(std::chrono::steady_clock::now()) {
  // Without a resident cache the batch owns one that keeps spec sets but
  // no parses: a batch names each source once.
  if (!this->Opts.Cache)
    this->Opts.Cache = &OwnCache.emplace(0);
}

void BatchRun::runOne(size_t I, unsigned Worker,
                      std::optional<ExecutionAnalysis> &Arena, bool Stolen,
                      bool Skip) {
  TimePoint S0 = std::chrono::steady_clock::now();
  ++Loads[Worker].Tasks;
  Loads[Worker].Steals += Stolen;
  if (!Skip) {
    CheckResponse &Resp = Results[I];
    evaluateRequest(Requests[I], Resp, Arena, *Opts.Cache, Opts.Strategy,
                    Opts.Store);
    Resp.Seconds = secondsSince(S0);
    Loads[Worker].BasesVisited += Resp.Candidates;
  }
  Loads[Worker].BusySeconds += secondsSince(S0);
  // Stream in request order: emit response i only after 0..i-1.
  std::lock_guard<std::mutex> Lock(EmitMu);
  Done[I] = 1;
  while (NextToEmit < Results.size() && Done[NextToEmit]) {
    if (OnResult)
      OnResult(Results[NextToEmit]);
    ++NextToEmit;
  }
}

std::vector<CheckResponse> BatchRun::take(BatchTelemetry &T) {
  T.Programs = Requests.size();
  T.Candidates = T.Checks = 0;
  for (const CheckResponse &R : Results) {
    T.Candidates += R.Candidates;
    T.Checks += R.Candidates * R.Verdicts.size();
    T.Plan += R.Plan;
    T.Store += R.Store;
  }
  T.Workers = std::move(Loads);
  T.Seconds = secondsSince(T0);
  return std::move(Results);
}

CheckResponse QueryEngine::evaluate(const CheckRequest &R) const {
  return std::move(runAll(std::span(&R, 1)).front());
}

BatchTelemetry QueryEngine::run(
    std::span<const CheckRequest> Requests,
    const std::function<void(const CheckResponse &)> &OnResult) const {
  BatchTelemetry T;
  runAllInto(Requests, OnResult, T);
  return T;
}

std::vector<CheckResponse>
QueryEngine::runAll(std::span<const CheckRequest> Requests,
                    BatchTelemetry *Telemetry) const {
  BatchTelemetry T;
  std::vector<CheckResponse> Out = runAllInto(Requests, nullptr, T);
  if (Telemetry)
    *Telemetry = std::move(T);
  return Out;
}

std::vector<CheckResponse> QueryEngine::runAllInto(
    std::span<const CheckRequest> Requests,
    const std::function<void(const CheckResponse &)> &OnResult,
    BatchTelemetry &T) const {
  size_t N = Requests.size();
  if (N == 0) {
    T.Programs = 0;
    return {};
  }

  // One-shot flow: start workers per call and drive the same BatchRun the
  // resident server drives. Requests never split, so each worker just
  // claims the next unclaimed index. Idle workers beyond the request
  // count would only contend, so clamp.
  unsigned Jobs = std::max(1u, Opts.Jobs);
  Jobs = static_cast<unsigned>(std::min<size_t>(Jobs, N));
  BatchRun Batch(Requests, Jobs, Opts, OnResult);
  std::atomic<size_t> Next{0};
  auto Work = [&](unsigned W) {
    std::optional<ExecutionAnalysis> Arena;
    for (size_t I = Next++; I < N; I = Next++)
      Batch.runOne(I, W, Arena);
  };

  if (Jobs == 1) {
    Work(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned W = 0; W < Jobs; ++W)
      Threads.emplace_back(Work, W);
    for (std::thread &Th : Threads)
      Th.join();
  }
  return Batch.take(T);
}
