//===- workloads.cpp - The four benchmark workloads ------------------------------==//
///
/// Each workload: set up kSetups times (median = setup_s), then measure its
/// unit of work for the run's seconds, checking every answer against the
/// reference. The traced run (--trace 1) spends half the time untraced and
/// half inside a root span `run` with a span around each layer call, then
/// runs the per-layer probes.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "enumerate/Candidates.h"
#include "enumerate/Relaxation.h"
#include "execution/ExecutionAnalysis.h"
#include "lint/Lint.h"
#include "litmus/Parser.h"
#include "models/EvalPlan.h"
#include "models/ModelRegistry.h"
#include "query/Json.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"
#include "store/VerdictStore.h"
#include "synth/Conformance.h"

#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_set>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace tmw;

namespace perfbench {
namespace {

/// Run \p Setup kSetups times; record the median as setup_s and return
/// the last result.
template <class Fn> auto timedSetup(Context &C, Fn &&Setup) {
  std::vector<double> Times;
  decltype(Setup()) Out;
  for (unsigned I = 0; I < kSetups; ++I) {
    Out = {}; // free the previous set-up first: peak RSS counts one copy
    int64_t T0 = nowNs();
    Out = Setup();
    Times.push_back(secondsSince(T0));
  }
  C.M.set("setup_s", median(Times), "s");
  std::string Samples;
  for (double T : Times) {
    if (!Samples.empty())
      Samples += ' ';
    Samples += std::to_string(T);
  }
  C.note("setup_samples_s", Samples);
  return Out;
}

/// The pool plus the independent-strategy reference answers for one
/// request shape.
struct Replay {
  Pool P;
  std::vector<CheckRequest> Requests;
  std::vector<CheckResponse> Reference;
  std::vector<std::string> RefBytes;
};

Replay buildReplay(const std::vector<std::string> &Specs, bool Explain,
                   bool WantOutcomes) {
  Replay R;
  R.P = buildPool();
  R.Requests = poolRequests(R.P, Specs, Explain, WantOutcomes);
  R.Reference =
      QueryEngine({.Jobs = 1, .Strategy = EvalStrategy::Independent})
          .runAll(R.Requests);
  R.RefBytes = responseBytes(R.Reference);
  return R;
}

/// Check the rules of every pool program on the reference answers.
void checkReplayRules(Context &C, const Replay &R,
                      const std::vector<std::string> &Specs) {
  C.PoolDigest = R.P.Digest;
  C.note("pool_programs", std::to_string(R.P.Programs.size()));
  for (size_t I = 0; I < R.P.Programs.size(); ++I)
    checkRules(R.P.Programs[I], Specs, R.Reference[I], C.Exceptions, C.L);
}

/// Flip one byte in the middle of \p S; flipping twice restores it.
void corrupt(std::string &S) { S[S.size() / 2] ^= 0x20; }

/// The corrupted-reference self-check: re-verify the last unit's answers
/// (\p Verify) with one reference entry corrupted (\p Corrupt toggles
/// it); the failure count must rise by exactly one. One attempt.
template <class VerifyFn, class CorruptFn>
void selfCheck(Context &C, VerifyFn &&Verify, CorruptFn &&Corrupt) {
  Ledger Before, After;
  Verify(Before);
  Corrupt();
  Verify(After);
  Corrupt();
  C.L.check(After.Failed == Before.Failed + 1,
            "self-check: a corrupted reference entry was not counted");
}

std::vector<size_t> permutation(Rng &R, size_t N) {
  std::vector<size_t> O(N);
  std::iota(O.begin(), O.end(), size_t(0));
  R.shuffle(O);
  return O;
}

/// Digest of the first \p Units orders the seed generates, over the
/// request names in send order.
uint64_t orderDigest(uint64_t Seed, const std::vector<CheckRequest> &Requests,
                     unsigned Units) {
  Rng R(Seed);
  uint64_t H = fnv("");
  for (unsigned U = 0; U < Units; ++U)
    for (size_t I : permutation(R, Requests.size()))
      H = fnv(Requests[I].Name + "\n", H);
  return H;
}

std::vector<CheckRequest> reorder(const std::vector<CheckRequest> &Requests,
                                  const std::vector<size_t> &Order) {
  std::vector<CheckRequest> Out;
  Out.reserve(Order.size());
  for (size_t I : Order)
    Out.push_back(Requests[I]);
  return Out;
}

/// The probe input of a pool-replaying workload.
ProbeInput probeInput(Context &C, const Replay &R,
                      const std::vector<std::string> &Specs, bool Explain,
                      bool WantOutcomes) {
  ProbeInput In;
  In.P = &R.P;
  In.Specs = Specs;
  In.Explain = Explain;
  In.WantOutcomes = WantOutcomes;
  In.PoolRefBytes = &R.RefBytes;
  Rng Sample(C.Seed ^ 0x5eed);
  sampleBatches(Sample, R.Requests, R.Reference, 24, 16, In.Batches,
                In.BatchDocs);
  return In;
}

/// Finish a traced run: overhead, attribution, probes, span dump.
void finishTrace(Context &C, double Untraced, double Traced, ProbeInput &In) {
  C.M.set("trace.overhead_frac", Untraced > 0 ? Traced / Untraced - 1 : 0.0,
          "ratio");
  if (!C.M.find("query.unattributed_frac"))
    C.M.set("query.unattributed_frac", unattributedFrac(C.T), "ratio");
  C.M.set("trace.spans", double(C.T.recorded()), "count");
  runProbes(C, In);
  std::string Path = C.path(C.Workload + "-seed" + std::to_string(C.Seed) +
                            ".spans.tsv");
  if (C.T.write(Path))
    C.note("spans_file", Path);
}

/// Report the count, quartiles and extremes of the unit times (seconds).
void noteUnits(Context &C, std::vector<double> Times) {
  std::sort(Times.begin(), Times.end());
  auto At = [&](double Q) { return Times[size_t(Q * double(Times.size() - 1))]; };
  char Line[192];
  std::snprintf(Line, sizeof(Line), "n=%zu min=%.6g p5=%.6g q1=%.6g q2=%.6g "
                "q3=%.6g max=%.6g", Times.size(), Times.front(),
                quantile(Times, kFastQuantile), At(0.25), At(0.5), At(0.75),
                Times.back());
  C.note("unit_s", Line);
}

/// The end-to-end timings of a unit loop: the fast twentieth of the unit
/// times, calibrated, and the work of one unit (\p PerUnit requests or
/// tests) per calibrated second. The raw unit times and the calibration
/// go to the report.
void setUnitMetrics(Context &C, const HostCalibration &Host,
                    const std::vector<double> &Times, double PerUnit) {
  double Unit = quantile(Times, kFastQuantile) * Host.scale();
  C.M.set("calibrated_s", Unit, "s");
  C.M.set("calibrated_requests_per_s", PerUnit / Unit, "1/s");
  noteUnits(C, Times);
  C.note("calibration", Host.describe());
}

/// Run \p Unit repeatedly until \p Seconds pass (at least once); returns
/// each unit's seconds.
template <class Fn> std::vector<double> repeatFor(double Seconds, Fn &&Unit) {
  std::vector<double> Times;
  int64_t Start = nowNs();
  do {
    int64_t T0 = nowNs();
    Unit();
    Times.push_back(secondsSince(T0));
  } while (secondsSince(Start) < Seconds);
  return Times;
}

} // namespace

// ---------------------------------------------------------------------------
// synth_x86: the Fig. 7 search, timed at |E| = kSynthUnitEvents.
// ---------------------------------------------------------------------------

void runSynthX86(Context &C) {
  // The pool is only read by the traced run's probes; building it is the
  // set-up every workload shares.
  Pool P = timedSetup(C, [] { return buildPool(); });
  C.PoolDigest = P.Digest;
  C.StreamDigest = fnv("synth_x86: x86 against x86/+baseline, |E| = " +
                       std::to_string(kSynthUnitEvents) + ", then 5");
  if (C.CorruptReference)
    C.SynthUnit.Forbid[0] ^= 1;

  auto CheckSuite = [&](const std::vector<Execution> &Forbid,
                        const std::vector<Execution> &Allow,
                        const SuiteHashes &Want, Ledger &L) {
    auto Compare = [&](const std::vector<Execution> &Got,
                       const std::vector<uint64_t> &Hashes, const char *What) {
      std::unordered_set<uint64_t> Have;
      for (const Execution &X : Got)
        Have.insert(canonicalHash(X));
      L.check(Got.size() == Hashes.size(),
              std::string(What) + ": suite size " + std::to_string(Got.size()));
      for (uint64_t H : Hashes)
        L.check(Have.count(H) == 1,
                std::string(What) + ": reference test missing");
    };
    Compare(Forbid, Want.Forbid, "forbid");
    Compare(Allow, Want.Allow, "allow");
  };

  std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse("x86");
  std::unique_ptr<MemoryModel> Baseline = ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  auto Synthesize = [&](unsigned NumEvents, std::vector<Execution> &Forbid,
                        std::vector<Execution> &Allow) {
    ForbidSuite F = synthesizeForbid(*Tm, *Baseline, V, NumEvents, 1e18, 1);
    Allow = relaxationsOf(F.Tests, V);
    Forbid = std::move(F.Tests);
  };

  if (!C.Trace) {
    std::vector<Execution> LastForbid, LastAllow;
    std::vector<double> Times;
    HostCalibration Host;
    int64_t Start = nowNs();
    do {
      int64_t T0 = nowNs();
      Synthesize(kSynthUnitEvents, LastForbid, LastAllow);
      Times.push_back(secondsSince(T0));
      CheckSuite(LastForbid, LastAllow, C.SynthUnit, C.L);
      Host.sample();
    } while (secondsSince(Start) < C.Seconds);
    setUnitMetrics(C, Host, Times,
                   double(LastForbid.size() + LastAllow.size()));
    selfCheck(
        C,
        [&](Ledger &L) {
          CheckSuite(LastForbid, LastAllow, C.SynthUnit, L);
        },
        [&] { C.SynthUnit.Allow.back() ^= 1; });
    // The Fig. 7 search itself, once, untimed: its 60 Forbid and 350
    // Allow tests.
    std::vector<Execution> Forbid, Allow;
    int64_t T0 = nowNs();
    Synthesize(5, Forbid, Allow);
    C.note("fig7_search_s", std::to_string(secondsSince(T0)));
    CheckSuite(Forbid, Allow, C.SynthFig7, C.L);
    C.M.set("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // Traced: the same search re-driven through the enumerator with a span
  // around every layer call; half the time with the tracer off.
  std::vector<Execution> Forbid, Allow;
  uint64_t Bases = 0, Placements = 0;
  Tracer Off(false);
  std::vector<double> Untraced = repeatFor(C.Seconds / 2, [&] {
    mirrorSynthesis(Off, kSynthUnitEvents, Forbid, Allow);
  });
  CheckSuite(Forbid, Allow, C.SynthUnit, C.L);
  C.T = Tracer(true);
  uint32_t Run = C.T.intern("run");
  std::vector<double> Traced;
  {
    Scope Root(C.T, Run);
    Traced = repeatFor(C.Seconds / 2, [&] {
      std::tie(Bases, Placements) =
          mirrorSynthesis(C.T, kSynthUnitEvents, Forbid, Allow);
    });
  }
  CheckSuite(Forbid, Allow, C.SynthUnit, C.L);
  synthMetrics(C, C.T, static_cast<unsigned>(Traced.size()), Bases,
               Placements, Forbid.size(), Allow.size());

  Replay R;
  R.P = std::move(P);
  R.Requests = poolRequests(R.P, {"x86", "x86/+baseline"}, false, true);
  R.Reference =
      QueryEngine({.Jobs = 1, .Strategy = EvalStrategy::Independent})
          .runAll(R.Requests);
  R.RefBytes = responseBytes(R.Reference);
  ProbeInput In = probeInput(C, R, {"x86", "x86/+baseline"}, false, true);
  In.Executions = Forbid;
  In.Executions.insert(In.Executions.end(), Allow.begin(), Allow.end());
  finishTrace(C, median(Untraced), median(Traced), In);
}

// ---------------------------------------------------------------------------
// matrix_replay: the pool against 24 specs, one cache-less batch per pass.
// ---------------------------------------------------------------------------

namespace {

/// Span ids of the mirrored request evaluation.
struct RequestSpans {
  uint32_t Request, Resolve, Parse, Compile, Facts, Specialize, Candidates,
      Reset, Evaluate, Collect, Finish;
  explicit RequestSpans(Tracer &T)
      : Request(T.intern("query.request")),
        Resolve(T.intern("models.resolve")), Parse(T.intern("litmus.parse")),
        Compile(T.intern("models.plan_compile")),
        Facts(T.intern("lint.facts")),
        Specialize(T.intern("models.specialize")),
        Candidates(T.intern("enumerate.candidates")),
        Reset(T.intern("execution.reset")),
        Evaluate(T.intern("models.evaluate")),
        Collect(T.intern("query.collect")), Finish(T.intern("query.finish")) {}
};

/// One cache-less planned batch, evaluated the way `QueryEngine` does at
/// one job (resolve, parse, plan once per batch, facts, specialize,
/// enumerate once, plan-evaluate each candidate, collect verdicts), with a
/// span around each layer call. Requests must not ask for explanations.
std::vector<CheckResponse> mirrorBatch(Tracer &T, const RequestSpans &Id,
                                       const std::vector<CheckRequest> &Batch,
                                       uint64_t &NumCandidates) {
  std::vector<CheckResponse> Out;
  Out.reserve(Batch.size());
  std::optional<EvalPlan> Plan;
  std::optional<ExecutionAnalysis> Arena;
  for (size_t I = 0; I < Batch.size(); ++I) {
    const CheckRequest &R = Batch[I];
    Scope Q(T, Id.Request, I);
    CheckResponse Resp;
    Resp.Name = R.Name;
    std::vector<std::unique_ptr<MemoryModel>> Models;
    std::vector<const MemoryModel *> Raw;
    {
      Scope S(T, Id.Resolve, I);
      for (const std::string &Spec : R.ModelSpecs) {
        Models.push_back(ModelRegistry::parse(Spec));
        Raw.push_back(Models.back().get());
      }
      Resp.Verdicts.resize(Models.size());
      for (size_t M = 0; M < Models.size(); ++M)
        Resp.Verdicts[M].Spec = ModelRegistry::print(*Models[M]);
    }
    ParseResult Parsed;
    {
      Scope S(T, Id.Parse, I);
      Parsed = parseProgram(R.Source);
    }
    const Program &P = Parsed.Prog;
    if (!Plan) {
      Scope S(T, Id.Compile, I);
      Plan = EvalPlan::compile(Raw);
    }
    ProgramFacts Facts;
    {
      Scope S(T, Id.Facts, I);
      Facts = computeFacts(P);
    }
    EvalPlan::Scratch Scratch;
    EvalPlan::Specialization Sp;
    {
      Scope S(T, Id.Specialize, I);
      Scratch = Plan->makeScratch();
      Sp = Plan->specialize(Facts);
    }
    {
      Scope S(T, Id.Candidates, I);
      forEachCandidate(P, [&](const Candidate &Cand) {
        int64_t Index = static_cast<int64_t>(Resp.Candidates++);
        {
          Scope S2(T, Id.Reset, I);
          if (!Arena)
            Arena.emplace(Cand.X);
          else
            Arena->reset(Cand.X);
        }
        {
          Scope S2(T, Id.Evaluate, I);
          Plan->evaluate(*Arena, Scratch, &Sp);
        }
        Scope S2(T, Id.Collect, I);
        bool Satisfies = Cand.O.satisfies(P);
        for (size_t M = 0; M < Models.size(); ++M) {
          ModelVerdict &V = Resp.Verdicts[M];
          if (Scratch.consistent(M)) {
            ++V.Consistent;
            V.Allowed |= Satisfies;
            if (R.WantOutcomes)
              V.AllowedOutcomes.push_back(Cand.O);
          } else if (V.FirstForbidden < 0) {
            V.FirstForbidden = Index;
          }
        }
        return true;
      });
    }
    NumCandidates += Resp.Candidates;
    {
      Scope S(T, Id.Finish, I);
      for (ModelVerdict &V : Resp.Verdicts) {
        std::sort(V.AllowedOutcomes.begin(), V.AllowedOutcomes.end());
        V.AllowedOutcomes.erase(
            std::unique(V.AllowedOutcomes.begin(), V.AllowedOutcomes.end()),
            V.AllowedOutcomes.end());
      }
    }
    Out.push_back(std::move(Resp));
  }
  return Out;
}

double perCall(const Tracer &T, const char *Name, double Scale,
               bool Self = false) {
  const SpanTotals &S = T.totals(Name);
  return S.Count ? double(Self ? S.SelfNs : S.TotalNs) * Scale /
                       double(S.Count)
                 : 0.0;
}

} // namespace

void runMatrixReplay(Context &C) {
  Replay R = timedSetup(C, [] { return buildReplay(kMatrixSpecs, false, true); });
  checkReplayRules(C, R, kMatrixSpecs);
  C.StreamDigest = orderDigest(C.Seed, R.Requests, 8);
  std::vector<std::string> Ref = R.RefBytes;
  if (C.CorruptReference)
    corrupt(Ref[0]);

  auto Verify = [&](const std::vector<CheckResponse> &Got,
                    const std::vector<size_t> &Order, Ledger &L) {
    L.check(Got.size() == Order.size(), "pass: response count");
    for (size_t K = 0; K < Got.size() && K < Order.size(); ++K)
      L.check(toJson(Got[K]) == Ref[Order[K]],
              "pass: " + Got[K].Name + " differs from the reference");
  };

  Rng Order(C.Seed);
  size_t N = R.Requests.size();
  if (!C.Trace) {
    std::vector<double> Times;
    std::vector<size_t> O;
    std::vector<CheckResponse> Got;
    HostCalibration Host;
    int64_t Start = nowNs();
    do {
      O = permutation(Order, N);
      std::vector<CheckRequest> Batch = reorder(R.Requests, O);
      int64_t T0 = nowNs();
      Got = QueryEngine({.Jobs = 1}).runAll(Batch);
      Times.push_back(secondsSince(T0));
      Verify(Got, O, C.L);
      Host.sample();
    } while (secondsSince(Start) < C.Seconds);
    setUnitMetrics(C, Host, Times, double(N));
    C.M.set("peak_rss_mb", peakRssMb(), "MB");
    selfCheck(
        C, [&](Ledger &L) { Verify(Got, O, L); },
        [&] { corrupt(Ref[O[0]]); });
    return;
  }

  uint64_t Candidates = 0;
  Tracer Off(false);
  RequestSpans OffIds(Off);
  uint32_t OffRun = Off.intern("run");
  // One pass inside a root span `run`; the verification after it is
  // benchmark work, outside every span.
  auto Pass = [&](Tracer &T, const RequestSpans &Ids, uint32_t Run) {
    std::vector<size_t> O = permutation(Order, N);
    std::vector<CheckRequest> Batch = reorder(R.Requests, O);
    int64_t T0 = nowNs();
    std::vector<CheckResponse> Got;
    {
      Scope Root(T, Run);
      Got = mirrorBatch(T, Ids, Batch, Candidates);
    }
    double Dt = secondsSince(T0);
    Verify(Got, O, C.L);
    return Dt;
  };
  std::vector<double> Untraced, Traced;
  int64_t Start = nowNs();
  do
    Untraced.push_back(Pass(Off, OffIds, OffRun));
  while (secondsSince(Start) < C.Seconds / 2);
  C.T = Tracer(true);
  RequestSpans Ids(C.T);
  uint32_t Run = C.T.intern("run");
  Candidates = 0;
  Start = nowNs();
  do
    Traced.push_back(Pass(C.T, Ids, Run));
  while (secondsSince(Start) < C.Seconds / 2);
  double Requests = double(C.T.totals("query.request").Count);
  C.M.set("models.resolve_us",
          perCall(C.T, "models.resolve", 1e-3) / double(kMatrixSpecs.size()),
          "us");
  C.M.set("litmus.parse_us", perCall(C.T, "litmus.parse", 1e-3), "us");
  C.M.set("lint.facts_us", perCall(C.T, "lint.facts", 1e-3), "us");
  C.M.set("models.plan_compile_ms", perCall(C.T, "models.plan_compile", 1e-6),
          "ms");
  C.M.set("models.specialize_us", perCall(C.T, "models.specialize", 1e-3),
          "us");
  C.M.set("models.evaluate_us", perCall(C.T, "models.evaluate", 1e-3), "us");
  C.M.set("enumerate.candidate_us",
          Candidates ? double(C.T.totals("enumerate.candidates").SelfNs) *
                           1e-3 / double(Candidates)
                     : 0.0,
          "us");
  C.note("traced_requests", std::to_string(uint64_t(Requests)));
  ProbeInput In = probeInput(C, R, kMatrixSpecs, false, true);
  finishTrace(C, median(Untraced), median(Traced), In);
}

// ---------------------------------------------------------------------------
// serve_mixed: a resident server behind the multiplexer, two closed-loop
// connections driven by one generator thread.
// ---------------------------------------------------------------------------

namespace {

constexpr unsigned kConnections = 2;
constexpr size_t kBatchesPerConnection = 256;
constexpr size_t kBatchSize = 16;
/// calibrated_requests_per_s is measured over windows of this many
/// completed batches.
constexpr size_t kWindowBatches = 64;

struct ServeSetup {
  Replay R;
  /// Per connection: batch lines (newline-terminated) and the documents
  /// they must produce.
  std::vector<std::vector<std::string>> Lines, Docs;
  /// The resident server (2 workers), its caches filled by one pass over
  /// the pool: the workload measures the warm interactive shape.
  std::unique_ptr<QueryServer> Server;
};

ServeSetup buildServe(uint64_t Seed) {
  ServeSetup S;
  S.R = buildReplay(kServeSpecs, true, true);
  Rng R(Seed);
  S.Lines.resize(kConnections);
  S.Docs.resize(kConnections);
  for (unsigned Conn = 0; Conn < kConnections; ++Conn) {
    std::vector<std::vector<CheckRequest>> Batches;
    sampleBatches(R, S.R.Requests, S.R.Reference, kBatchesPerConnection,
                  kBatchSize, Batches, S.Docs[Conn]);
    for (const auto &B : Batches)
      S.Lines[Conn].push_back(requestsToJsonLine(B) + "\n");
  }
  S.Server = std::make_unique<QueryServer>(ServerOptions{.Jobs = 2});
  S.Server->runBatch(S.R.Requests);
  return S;
}

} // namespace

void runServeMixed(Context &C) {
  ServeSetup S = timedSetup(C, [&] { return buildServe(C.Seed); });
  checkReplayRules(C, S.R, kServeSpecs);
  uint64_t H = fnv("");
  for (const auto &Conn : S.Lines)
    for (const std::string &L : Conn)
      H = fnv(L, H);
  C.StreamDigest = H;
  std::vector<std::vector<std::string>> Docs = S.Docs;
  if (C.CorruptReference)
    corrupt(Docs[0][0]);

  std::unique_ptr<QueryServer> Server = std::move(S.Server);
  std::string Path = C.path("serve-" + std::to_string(::getpid()) + ".sock");
  server::MuxOptions MO;
  MO.AcceptLimit = kConnections;
  server::ConnectionMultiplexer Mux(*Server, MO);
  std::thread Loop([&] { Mux.serve(Path); });

  struct Conn {
    int Fd = -1;
    size_t Next = 0;
    int64_t SentAt = 0;
    bool Busy = false;
    std::string Buf;
  };
  std::vector<Conn> Conns(kConnections);
  bool Ok = true;
  for (Conn &K : Conns) {
    K.Fd = connectUnix(Path);
    Ok = Ok && K.Fd >= 0;
  }
  C.L.check(Ok, "serve: cannot connect to " + Path);

  // Latencies (ms) of the untraced and the traced half; the traced half
  // records one span per batch round trip (the two connections overlap,
  // so their union is computed from the intervals, not the span stack).
  std::vector<double> First, Second;
  std::vector<std::pair<int64_t, int64_t>> Intervals;
  std::vector<int64_t> DoneAt;
  std::string LastGot;
  size_t LastConn = 0, LastIndex = 0;
  if (C.Trace)
    C.T = Tracer(true);
  uint32_t RoundTrip = C.T.intern("server.roundtrip");
  double TracedFrom = C.Trace ? C.Seconds / 2 : 1e18;
  uint64_t Batches = 0;
  HostCalibration Host;
  int64_t Start = nowNs();
  auto Send = [&](unsigned I) {
    Conn &K = Conns[I];
    const std::string &Line = S.Lines[I][K.Next % kBatchesPerConnection];
    K.SentAt = nowNs();
    K.Busy = true;
    Ok = Ok && sendAll(K.Fd, Line);
  };
  for (unsigned I = 0; Ok && I < kConnections; ++I)
    Send(I);
  while (Ok) {
    bool AnyBusy = false;
    std::vector<pollfd> P;
    for (Conn &K : Conns) {
      P.push_back({K.Fd, POLLIN, 0});
      AnyBusy |= K.Busy;
    }
    if (!AnyBusy)
      break;
    int N = ::poll(P.data(), P.size(), 60000);
    if (N <= 0) {
      Ok = N < 0 && errno == EINTR;
      continue;
    }
    for (unsigned I = 0; I < kConnections; ++I) {
      Conn &K = Conns[I];
      if (!(P[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!readSome(K.Fd, K.Buf)) {
        Ok = false;
        break;
      }
      const std::string &Want = Docs[I][K.Next % kBatchesPerConnection];
      if (K.Buf.size() < Want.size())
        continue;
      int64_t Done = nowNs();
      double Ms = double(Done - K.SentAt) * 1e-6;
      double At = double(K.SentAt - Start) * 1e-9;
      (At >= TracedFrom ? Second : First).push_back(Ms);
      DoneAt.push_back(Done);
      if (At >= TracedFrom) {
        Intervals.push_back({K.SentAt, Done});
        C.T.record(RoundTrip, K.SentAt, Done, Batches);
      }
      C.L.check(K.Buf == Want, "serve: connection " + std::to_string(I) +
                                   " batch " + std::to_string(K.Next) +
                                   " differs from the reference");
      LastGot = std::move(K.Buf);
      LastConn = I;
      LastIndex = K.Next % kBatchesPerConnection;
      K.Buf.clear();
      K.Busy = false;
      ++K.Next;
      ++Batches;
      if (secondsSince(Start) < C.Seconds)
        Send(I);
    }
    // A slice delays at most the batches in flight, about one in a hundred.
    if (!C.Trace)
      Host.sample();
  }
  for (Conn &K : Conns)
    if (K.Fd >= 0) {
      ::shutdown(K.Fd, SHUT_WR);
      std::string Rest;
      while (readSome(K.Fd, Rest))
        ;
      ::close(K.Fd);
    }
  if (!Ok)
    Mux.requestStop();
  Loop.join();
  ::unlink(Path.c_str());
  C.L.check(Ok, "serve: connection failed or timed out");

  std::vector<double> All = First;
  All.insert(All.end(), Second.begin(), Second.end());
  Tail T = tailOf(All);
  uint64_t Bytes = 0, Pauses = 0, MuxBatches = 0;
  for (const server::MuxConnStats &K : Mux.stats().Connections) {
    Bytes += K.BytesIn + K.BytesOut;
    Pauses += K.BackpressurePauses;
    MuxBatches += K.Batches;
  }
  SessionCache::Stats Cache = Server->stats().Cache;
  Server.reset();

  if (!C.Trace) {
    // Throughput over each window of kWindowBatches consecutive
    // completions; the fast twentieth of the windows, as for the unit
    // times.
    std::vector<double> Rates;
    for (size_t I = kWindowBatches; I < DoneAt.size(); I += kWindowBatches)
      Rates.push_back(double(kWindowBatches * kBatchSize) /
                      (double(DoneAt[I] - DoneAt[I - kWindowBatches]) * 1e-9));
    // A round trip crosses four threads, so its fast units are lucky
    // wake-ups rather than a fast phase of one core: the batch p50 is
    // the steadier figure here (spread 0.06 against 0.10 for the fast
    // twentieth, five 35 s runs on a shared 4-vCPU host).
    C.M.set("calibrated_s", median(All) * 1e-3 * Host.scale(), "s");
    C.M.set("calibrated_requests_per_s",
            quantile(Rates, 1 - kFastQuantile) / Host.scale(), "1/s");
    C.note("calibration", Host.describe());
    C.M.set("peak_rss_mb", peakRssMb(), "MB");
    noteUnits(C, All);
    C.note("batch_p50_ms", std::to_string(median(All)));
    C.note("batch_tail_ms", std::to_string(T.Value) + " at p" +
                                std::to_string(T.Pct) + " of " +
                                std::to_string(T.Samples) + " samples");
    std::string &Want = Docs[LastConn][LastIndex];
    selfCheck(
        C, [&](Ledger &L) { L.check(LastGot == Want, "serve: last batch"); },
        [&] { corrupt(Want); });
    return;
  }

  C.M.set("server.batch_p50_ms", median(All), "ms");
  C.M.set("server.batch_tail_ms", T.Value, "ms");
  C.M.set("server.batch_tail_pct", T.Pct, "%");
  C.M.set("server.batch_tail_samples", double(T.Samples), "count");
  C.M.set("server.bytes_per_batch",
          MuxBatches ? double(Bytes) / double(MuxBatches) : 0.0, "bytes");
  C.M.set("server.backpressure_pauses", double(Pauses), "count");
  C.M.set("query.session_hit_rate",
          Cache.ProgramHits + Cache.ProgramMisses
              ? double(Cache.ProgramHits) /
                    double(Cache.ProgramHits + Cache.ProgramMisses)
              : 0.0,
          "ratio");
  // Wall time of the traced half not covered by any round-trip span (the
  // two connections' spans overlap, so take their union).
  std::sort(Intervals.begin(), Intervals.end());
  int64_t Covered = 0, Lo = 0, Hi = 0, First0 = 0, LastEnd = 0;
  if (!Intervals.empty())
    First0 = Lo = Hi = Intervals.front().first;
  for (const auto &[A, B] : Intervals) {
    if (A > Hi) {
      Covered += Hi - Lo;
      Lo = A;
    }
    Hi = std::max(Hi, B);
    LastEnd = std::max(LastEnd, B);
  }
  Covered += Hi - Lo;
  double TracedWall = double(LastEnd - First0);
  C.M.set("query.unattributed_frac",
          TracedWall > 0 ? 1 - double(Covered) / TracedWall : 0.0, "ratio");
  ProbeInput In = probeInput(C, S.R, kServeSpecs, true, true);
  finishTrace(C, median(First), median(Second), In);
}

// ---------------------------------------------------------------------------
// store_restart: one-shot engines over a persistent verdict store.
// ---------------------------------------------------------------------------

void runStoreRestart(Context &C) {
  constexpr unsigned kWarm = 4;
  Replay R = timedSetup(C, [] { return buildReplay(kServeSpecs, false, true); });
  checkReplayRules(C, R, kServeSpecs);
  C.StreamDigest = orderDigest(C.Seed, R.Requests, 8);
  std::vector<std::string> Ref = R.RefBytes;
  if (C.CorruptReference)
    corrupt(Ref[0]);
  std::string Path =
      C.path("restart-" + std::to_string(::getpid()) + ".store");
  size_t N = R.Requests.size();
  Rng Order(C.Seed);

  if (C.Trace)
    C.T = Tracer(true);
  uint32_t Open = C.T.intern("store.open"), Engine = C.T.intern("query.engine"),
           Close = C.T.intern("store.close"), Run = C.T.intern("run");
  uint64_t Hits = 0, Lookups = 0;
  std::vector<size_t> LastOrder;
  std::vector<CheckResponse> LastGot;
  auto VerifyRestart = [&](const std::vector<CheckResponse> &Got,
                           const std::vector<size_t> &O, Ledger &L) {
    L.check(Got.size() == O.size(), "restart: response count");
    for (size_t I = 0; I < Got.size() && I < O.size(); ++I)
      L.check(toJson(Got[I]) == Ref[O[I]],
              "restart: " + Got[I].Name + " differs from the reference");
  };
  // One restart: open, serve the whole batch in a fresh engine, close —
  // inside a root span `run`; verification follows outside it.
  auto Restart = [&](Tracer &T) {
    std::vector<size_t> O = permutation(Order, N);
    std::vector<CheckRequest> Batch = reorder(R.Requests, O);
    int64_t T0 = nowNs();
    std::vector<CheckResponse> Got;
    StoreCounters K;
    {
      Scope Root(T, Run);
      std::string Error;
      std::unique_ptr<VerdictStore> S;
      {
        Scope Sp(T, Open);
        S = VerdictStore::open(Path, &Error);
      }
      if (!S) {
        C.L.check(false, "store: " + Error);
        return 0.0;
      }
      {
        Scope Sp(T, Engine);
        Got = QueryEngine({.Jobs = 1, .Store = S.get()}).runAll(Batch);
      }
      K = S->counters();
      Scope Sp(T, Close);
      S.reset();
    }
    double Dt = secondsSince(T0);
    Hits += K.Hits;
    Lookups += K.Hits + K.Misses;
    VerifyRestart(Got, O, C.L);
    LastGot = std::move(Got);
    LastOrder = std::move(O);
    return Dt;
  };

  std::vector<double> Cycles, Fill, Warm, TracedWarm;
  auto Cycle = [&](Tracer &T, std::vector<double> &WarmInto) {
    ::unlink(Path.c_str());
    double F = Restart(T);
    Hits = Lookups = 0;
    double Total = F;
    for (unsigned I = 0; I < kWarm; ++I) {
      double W = Restart(T);
      WarmInto.push_back(W);
      Total += W;
    }
    Fill.push_back(F);
    Cycles.push_back(Total);
  };
  Tracer Off(false);
  HostCalibration Host;
  int64_t Start = nowNs();
  double Untraced = C.Trace ? C.Seconds / 2 : C.Seconds;
  do {
    Cycle(Off, Warm);
    Host.sample();
  } while (secondsSince(Start) < Untraced);
  if (C.Trace) {
    Start = nowNs();
    do
      Cycle(C.T, TracedWarm);
    while (secondsSince(Start) < C.Seconds / 2);
  }
  double HitRate = Lookups ? double(Hits) / double(Lookups) : 0.0;
  ::unlink(Path.c_str());

  if (!C.Trace) {
    C.M.set("calibrated_s",
            quantile(Cycles, kFastQuantile) * Host.scale(), "s");
    C.M.set("calibrated_requests_per_s",
            double(N) / (quantile(Warm, kFastQuantile) * Host.scale()),
            "1/s");
    C.M.set("peak_rss_mb", peakRssMb(), "MB");
    noteUnits(C, Cycles);
    C.note("calibration", Host.describe());
    C.note("fill_requests_per_s",
           std::to_string(double(N * Fill.size()) /
                          std::accumulate(Fill.begin(), Fill.end(), 0.0)));
    C.note("warm_hit_rate", std::to_string(HitRate));
    selfCheck(
        C, [&](Ledger &L) { VerifyRestart(LastGot, LastOrder, L); },
        [&] { corrupt(Ref[LastOrder[0]]); });
    return;
  }

  C.M.set("store.fill_requests_per_s",
          double(N * Fill.size()) /
              std::accumulate(Fill.begin(), Fill.end(), 0.0),
          "1/s");
  C.M.set("store.hit_rate", HitRate, "ratio");
  C.M.set("store.open_ms", perCall(C.T, "store.open", 1e-6), "ms");
  // The same restarts with no store attached: the other side of the
  // warm-store anomaly.
  std::vector<double> NoStore = repeatFor(1.0, [&] {
    std::vector<CheckResponse> Got =
        QueryEngine({.Jobs = 1}).runAll(R.Requests);
    keep(Got);
  });
  C.M.set("store.nostore_requests_per_s",
          double(N * NoStore.size()) /
              std::accumulate(NoStore.begin(), NoStore.end(), 0.0),
          "1/s");
  double WarmRps = double(N * Warm.size()) /
                   std::accumulate(Warm.begin(), Warm.end(), 0.0);
  ProbeInput In = probeInput(C, R, kServeSpecs, false, true);
  finishTrace(C, median(Warm), median(TracedWarm), In);

  // The warm-store anomaly: a warm restart still resolves every spec and
  // parses every program before its lookup, then decodes the stored JSON;
  // the store-less restart enumerates and evaluates instead.
  auto Get = [&](const char *Name) { return C.M.find(Name)->Value; };
  double NoStoreRps = Get("store.nostore_requests_per_s");
  char Line[512];
  std::snprintf(
      Line, sizeof(Line),
      "warm requests_per_s=%.1f store.nostore_requests_per_s=%.1f "
      "(warm/nostore = %.3f); per warm request: resolve %.2f us + parse "
      "%.2f us + lookup %.2f us + decode %.2f us = %.2f us of %.2f us",
      WarmRps, NoStoreRps, WarmRps / NoStoreRps,
      Get("models.resolve_us") * double(kServeSpecs.size()),
      Get("litmus.parse_us"), Get("store.lookup_us"), Get("store.decode_us"),
      Get("models.resolve_us") * double(kServeSpecs.size()) +
          Get("litmus.parse_us") + Get("store.lookup_us") +
          Get("store.decode_us"),
      1e6 / WarmRps);
  C.note("anomaly store_warm_vs_nostore", Line);
}

} // namespace perfbench
