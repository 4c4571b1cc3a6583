//===- probes.cpp - Per-layer probes and the mirrored synthesis ------------------==//
///
/// The traced run reports one number per layer. Where the workload's own
/// traced loop does not reach a layer, a probe drives that layer's public
/// functions directly over the workload's own programs and request shape
/// (the replay pool, its spec set, its sample batches) and times them.
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

#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tmw;

namespace perfbench {

// ---------------------------------------------------------------------------
// Unix-socket client helpers.
// ---------------------------------------------------------------------------

int connectUnix(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (int Try = 0; Try < 500; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool sendAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool readSome(int Fd, std::string &Into) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Into.append(Buf, static_cast<size_t>(N));
    return true;
  }
}

// ---------------------------------------------------------------------------
// Mirrored synthesis.
// ---------------------------------------------------------------------------

std::pair<uint64_t, uint64_t>
mirrorSynthesis(Tracer &T, unsigned NumEvents, std::vector<Execution> &Forbid,
                std::vector<Execution> &Allow) {
  static const char *const Names[] = {
      "synth.search",         "enumerate.bases",     "execution.reset",
      "models.consistent",    "enumerate.placements", "enumerate.minimality",
      "enumerate.canonical",  "synth.relax",         "enumerate.relax"};
  uint32_t Id[9];
  for (unsigned I = 0; I < 9; ++I)
    Id[I] = T.intern(Names[I]);
  enum { Search, Bases, Reset, Consistent, Placements, Minimality, Canonical,
         Relax, RelaxStep };

  std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse("x86");
  std::unique_ptr<MemoryModel> Baseline = ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator Enum(V, NumEvents);
  std::optional<ExecutionAnalysis> Arena;
  // Canonical hash -> least-concreteEncoding representative, as the
  // library's merge keeps it.
  std::unordered_map<uint64_t, std::pair<Execution, std::vector<uint8_t>>>
      Found;
  uint64_t NumBases = 0, NumPlacements = 0;
  {
    Scope S(T, Id[Search]);
    Scope B(T, Id[Bases]);
    Enum.forEachBase([&](Execution &Base) {
      uint64_t Req = NumBases++;
      {
        Scope R(T, Id[Reset], Req);
        if (!Arena)
          Arena.emplace(Base);
        else
          Arena->reset(Base);
      }
      bool BaseOk;
      {
        Scope R(T, Id[Consistent], Req);
        BaseOk = Baseline->consistent(*Arena);
      }
      if (!BaseOk)
        return true;
      Scope P(T, Id[Placements], Req);
      return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
        ++NumPlacements;
        {
          Scope R(T, Id[Reset], Req);
          Arena->invalidateTransactionalState();
        }
        bool Ok;
        {
          Scope R(T, Id[Consistent], Req);
          Ok = Tm->consistent(*Arena);
        }
        if (Ok)
          return true;
        bool Minimal;
        {
          Scope R(T, Id[Minimality], Req);
          Minimal = isMinimallyInconsistent(*Arena, *Tm, V);
        }
        if (!Minimal)
          return true;
        Scope R(T, Id[Canonical], Req);
        uint64_t H = canonicalHash(X);
        std::vector<uint8_t> Key = concreteEncoding(X);
        auto It = Found.find(H);
        if (It == Found.end())
          Found.emplace(H, std::make_pair(X, std::move(Key)));
        else if (Key < It->second.second)
          It->second = {X, std::move(Key)};
        return true;
      });
    });
  }
  std::vector<uint64_t> Hashes;
  for (const auto &[H, Entry] : Found)
    Hashes.push_back(H);
  std::sort(Hashes.begin(), Hashes.end());
  Forbid.clear();
  for (uint64_t H : Hashes)
    Forbid.push_back(Found.at(H).first);

  Allow.clear();
  {
    Scope S(T, Id[Relax]);
    std::unordered_set<uint64_t> Seen;
    for (size_t I = 0; I < Forbid.size(); ++I) {
      std::vector<Execution> Children;
      {
        Scope R(T, Id[RelaxStep], I);
        Children = relaxOneStep(Forbid[I], V);
      }
      Scope R(T, Id[Canonical], I);
      for (Execution &Child : Children)
        if (Seen.insert(canonicalHash(Child)).second)
          Allow.push_back(std::move(Child));
    }
  }
  return {NumBases, NumPlacements};
}

void synthMetrics(Context &C, const Tracer &T, unsigned Runs, uint64_t Bases,
                  uint64_t Placements, size_t ForbidTests,
                  size_t AllowTests) {
  auto PerCall = [&](const char *Name, double Scale) {
    const SpanTotals &S = T.totals(Name);
    return S.Count ? double(S.TotalNs) * Scale / double(S.Count) : 0.0;
  };
  double R = std::max(1u, Runs);
  C.M.add("enumerate.bases", double(Bases), "count");
  C.M.add("enumerate.placements", double(Placements), "count");
  C.M.add("enumerate.base_us",
          Bases ? double(T.totals("enumerate.bases").SelfNs) * 1e-3 /
                      (double(Bases) * R)
                : 0.0,
          "us");
  C.M.add("enumerate.minimality_us", PerCall("enumerate.minimality", 1e-3),
          "us");
  C.M.add("models.consistent_us", PerCall("models.consistent", 1e-3), "us");
  C.M.add("synth.search_s", double(T.totals("synth.search").TotalNs) * 1e-9 / R,
          "s");
  C.M.add("synth.relax_s", double(T.totals("synth.relax").TotalNs) * 1e-9 / R,
          "s");
  C.M.add("synth.forbid_tests", double(ForbidTests), "count");
  C.M.add("synth.allow_tests", double(AllowTests), "count");
}

double unattributedFrac(const Tracer &T) {
  const SpanTotals &Root = T.totals("run");
  return Root.TotalNs ? double(Root.SelfNs) / double(Root.TotalNs) : 0.0;
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

namespace {

/// Repeat \p Body (which performs \p OpsPerRep operations) until at least
/// \p MinSeconds have passed; nanoseconds per operation.
template <class Fn>
double nsPerOp(double MinSeconds, uint64_t OpsPerRep, Fn &&Body) {
  if (OpsPerRep == 0)
    return 0;
  uint64_t Reps = 0;
  int64_t T0 = nowNs();
  do {
    Body();
    ++Reps;
  } while (secondsSince(T0) < MinSeconds);
  return double(nowNs() - T0) / double(Reps * OpsPerRep);
}

/// One pool program's candidate executions, parsed program, and facts.
struct ProgramCandidates {
  ParseResult Parse;
  ProgramFacts Facts;
  std::vector<Execution> Candidates;
};

constexpr size_t kMaxProbeCandidates = 6000;

void relationProbe(Context &C, const std::vector<Execution> &Xs) {
  struct Rels {
    Relation Po, Rf, Co, PoCom;
  };
  std::vector<Rels> R;
  R.reserve(Xs.size());
  for (const Execution &X : Xs) {
    ExecutionAnalysis A(X);
    R.push_back({A.po(), A.rf(), A.co(), A.po() | A.com()});
  }
  uint64_t N = R.size();
  C.M.add("relation.union_ns", nsPerOp(0.05, 4 * N, [&] {
            for (const Rels &X : R) {
              Relation U1 = X.Po | X.Rf, U2 = X.Rf | X.Co, U3 = X.Co | X.PoCom,
                       U4 = X.PoCom | X.Po;
              keep(U1), keep(U2), keep(U3), keep(U4);
            }
          }),
          "ns");
  C.M.add("relation.compose_ns", nsPerOp(0.05, 4 * N, [&] {
            for (const Rels &X : R) {
              Relation C1 = X.Po.compose(X.Rf), C2 = X.Rf.compose(X.Po),
                       C3 = X.Co.compose(X.Po), C4 = X.PoCom.compose(X.PoCom);
              keep(C1), keep(C2), keep(C3), keep(C4);
            }
          }),
          "ns");
  C.M.add("relation.closure_ns", nsPerOp(0.05, 4 * N, [&] {
            for (const Rels &X : R) {
              Relation T1 = X.Po.transitiveClosure(),
                       T2 = X.Rf.transitiveClosure(),
                       T3 = X.Co.transitiveClosure(),
                       T4 = X.PoCom.transitiveClosure();
              keep(T1), keep(T2), keep(T3), keep(T4);
            }
          }),
          "ns");
  C.M.add("relation.acyclic_ns", nsPerOp(0.05, 4 * N, [&] {
            unsigned Acyclic = 0;
            for (const Rels &X : R)
              Acyclic += X.Po.isAcyclic() + X.Rf.isAcyclic() +
                         X.Co.isAcyclic() + X.PoCom.isAcyclic();
            keep(Acyclic);
          }),
          "ns");
  C.M.add("relation.bytes", double(sizeof(Relation)), "bytes");

  std::optional<ExecutionAnalysis> A;
  C.M.add("execution.analysis_us",
          1e-3 * nsPerOp(0.05, N, [&] {
            for (const Execution &X : Xs) {
              if (!A)
                A.emplace(X);
              else
                A->reset(X);
              keep(A->fr()), keep(A->com()), keep(A->ecom()),
                  keep(A->poLoc()), keep(A->stxn()), keep(A->tfence()),
                  keep(A->strongLiftComStxn());
            }
          }),
          "us");
  C.M.add("execution.bytes", double(sizeof(Execution)), "bytes");
}

void modelsProbe(Context &C, const ProbeInput &In,
                 std::vector<ProgramCandidates> &Progs) {
  std::vector<std::unique_ptr<MemoryModel>> Owned;
  std::vector<const MemoryModel *> Models;
  for (const std::string &S : In.Specs) {
    Owned.push_back(ModelRegistry::parse(S));
    Models.push_back(Owned.back().get());
  }
  C.M.add("models.resolve_us", 1e-3 * nsPerOp(0.03, In.Specs.size(), [&] {
            for (const std::string &S : In.Specs) {
              std::unique_ptr<MemoryModel> M = ModelRegistry::parse(S);
              std::string Printed = ModelRegistry::print(*M);
              keep(Printed);
            }
          }),
          "us");
  EvalPlan Plan;
  C.M.add("models.plan_compile_ms", 1e-6 * nsPerOp(0.05, 1, [&] {
            Plan = EvalPlan::compile(Models);
          }),
          "ms");
  std::vector<EvalPlan::Specialization> Specs(Progs.size());
  C.M.add("models.specialize_us", 1e-3 * nsPerOp(0.03, Progs.size(), [&] {
            for (size_t I = 0; I < Progs.size(); ++I)
              Specs[I] = Plan.specialize(Progs[I].Facts);
          }),
          "us");

  uint64_t NumCand = 0;
  for (const ProgramCandidates &P : Progs)
    NumCand += P.Candidates.size();
  std::optional<ExecutionAnalysis> A;
  EvalPlan::Scratch S = Plan.makeScratch();
  C.M.add("models.evaluate_us", 1e-3 * nsPerOp(0.05, NumCand, [&] {
            for (size_t I = 0; I < Progs.size(); ++I)
              for (const Execution &X : Progs[I].Candidates) {
                if (!A)
                  A.emplace(X);
                else
                  A->reset(X);
                Plan.evaluate(*A, S, &Specs[I]);
              }
          }),
          "us");
  C.M.add("models.consistent_us",
            1e-3 * nsPerOp(0.05, NumCand * Models.size(), [&] {
              unsigned Ok = 0;
              for (const ProgramCandidates &P : Progs)
                for (const Execution &X : P.Candidates) {
                  A->reset(X);
                  for (const MemoryModel *M : Models)
                    Ok += M->consistent(*A);
                }
              keep(Ok);
            }),
            "us");

  // The explain path: checkAll on each model's first forbidden candidate
  // of each program, as the engine explains it.
  std::vector<std::pair<const Execution *, const MemoryModel *>> Forbidden;
  for (const ProgramCandidates &P : Progs)
    for (const MemoryModel *M : Models)
      for (const Execution &X : P.Candidates) {
        A->reset(X);
        if (!M->consistent(*A)) {
          Forbidden.push_back({&X, M});
          break;
        }
      }
  C.M.add("models.explain_us", 1e-3 * nsPerOp(0.05, Forbidden.size(), [&] {
            size_t Failed = 0;
            for (const auto &[X, M] : Forbidden) {
              A->reset(*X);
              Failed += M->checkAll(*A).Verdicts.size();
            }
            keep(Failed);
          }),
          "us");

  // Plan telemetry of one cache-less planned batch in the workload's
  // request shape over the whole pool.
  std::vector<CheckRequest> Requests =
      poolRequests(*In.P, In.Specs, In.Explain, In.WantOutcomes);
  BatchTelemetry Tele;
  std::vector<CheckResponse> Responses =
      QueryEngine({.Jobs = 1}).runAll(Requests, &Tele);
  std::vector<std::string> Bytes = responseBytes(Responses);
  for (size_t I = 0; I < Bytes.size(); ++I)
    C.L.check(Bytes[I] == (*In.PoolRefBytes)[I],
              "probe batch: " + Responses[I].Name + " differs from the "
              "independent reference");
  const PlanStats &PS = Tele.Plan;
  C.M.add("models.term_hit_rate",
          PS.TermEvals + PS.TermHits
              ? double(PS.TermHits) / double(PS.TermEvals + PS.TermHits)
              : 0.0,
          "ratio");
  C.M.add("models.short_circuit_rate",
          PS.SpecEvals + PS.SpecShortCircuits
              ? double(PS.SpecShortCircuits) /
                    double(PS.SpecEvals + PS.SpecShortCircuits)
              : 0.0,
          "ratio");
  C.M.add("models.discharged_per_candidate",
          Tele.Candidates ? double(PS.Discharged) / double(Tele.Candidates)
                          : 0.0,
          "count");
}

/// Serve the sample batches over a one-connection multiplexer session,
/// closed loop; per-batch latencies in ms.
std::vector<double> socketSession(Context &C, QueryServer &Server,
                                  const ProbeInput &In, unsigned Rounds,
                                  server::MuxStats &Stats) {
  std::string Path = C.path("probe-" + std::to_string(::getpid()) + ".sock");
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  server::ConnectionMultiplexer Mux(Server, Opts);
  std::thread Loop([&] { Mux.serve(Path); });
  std::vector<double> Ms;
  int Fd = connectUnix(Path);
  if (Fd < 0) {
    C.L.check(false, "probe: cannot connect to " + Path);
    Mux.requestStop();
  } else {
    std::vector<std::string> Lines;
    for (const auto &B : In.Batches)
      Lines.push_back(requestsToJsonLine(B) + "\n");
    std::string Got;
    for (unsigned R = 0; R < Rounds; ++R)
      for (size_t I = 0; I < Lines.size(); ++I) {
        Got.clear();
        int64_t T0 = nowNs();
        bool Ok = sendAll(Fd, Lines[I]);
        while (Ok && Got.size() < In.BatchDocs[I].size())
          Ok = readSome(Fd, Got);
        Ms.push_back(double(nowNs() - T0) * 1e-6);
        C.L.check(Ok && Got == In.BatchDocs[I],
                  "probe socket batch " + std::to_string(I));
        if (!Ok)
          break;
      }
    ::shutdown(Fd, SHUT_WR);
    std::string Rest;
    while (readSome(Fd, Rest))
      ;
    ::close(Fd);
  }
  Loop.join();
  Stats = Mux.stats();
  ::unlink(Path.c_str());
  return Ms;
}

void queryServerProbe(Context &C, ProbeInput &In) {
  // JSON in and out, per 16-request batch.
  std::vector<std::string> Lines;
  for (const auto &B : In.Batches)
    Lines.push_back(requestsToJsonLine(B));
  C.M.add("query.request_json_ms", 1e-6 * nsPerOp(0.05, Lines.size(), [&] {
            for (const std::string &L : Lines) {
              std::vector<CheckRequest> Parsed;
              bool Ok = requestsFromJson(L, Parsed);
              keep(Ok);
            }
          }),
          "ms");
  // A resident server at one worker against the one-shot engine at one
  // job: the comparison the resident-vs-cold anomaly is stated at. The
  // two alternate batch by batch, so drift in machine speed hits both.
  std::unique_ptr<QueryServer> Server =
      std::make_unique<QueryServer>(ServerOptions{.Jobs = 1});
  for (const auto &B : In.Batches)
    Server->runBatch(B);
  std::vector<std::vector<CheckResponse>> Cold(In.Batches.size());
  std::vector<double> ColdMs, InprocMs;
  double Busy = 0, Span = 0;
  for (unsigned Rep = 0; Rep < 3; ++Rep)
    for (size_t I = 0; I < In.Batches.size(); ++I) {
      int64_t T0 = nowNs();
      Cold[I] = QueryEngine({.Jobs = 1}).runAll(In.Batches[I]);
      ColdMs.push_back(double(nowNs() - T0) * 1e-6);
      BatchTelemetry Tele;
      T0 = nowNs();
      std::vector<CheckResponse> R = Server->runBatch(In.Batches[I], &Tele);
      InprocMs.push_back(double(nowNs() - T0) * 1e-6);
      for (const WorkerLoad &W : Tele.Workers)
        Busy += W.BusySeconds;
      Span += Tele.Seconds * double(Server->jobs());
      if (Rep == 0)
        C.L.check(responsesToJson(R) == In.BatchDocs[I] &&
                      responsesToJson(Cold[I]) == In.BatchDocs[I],
                  "probe batch " + std::to_string(I));
    }
  C.M.add("query.cold_engine_batch_ms", median(ColdMs), "ms");
  C.M.add("query.response_json_ms", 1e-6 * nsPerOp(0.05, Cold.size(), [&] {
            for (const auto &R : Cold) {
              std::string Doc = responsesToJson(R);
              keep(Doc);
            }
          }),
          "ms");
  double InprocP50 = median(InprocMs), SocketP50 = 0;
  C.M.add("server.inproc_batch_p50_ms", InprocP50, "ms");
  C.M.add("server.worker_busy_frac", Span > 0 ? Busy / Span : 0.0, "ratio");

  {
    server::MuxStats Stats;
    std::vector<double> Ms = socketSession(C, *Server, In, 3, Stats);
    Tail T = tailOf(Ms);
    SocketP50 = median(Ms);
    C.M.add("server.batch_p50_ms", SocketP50, "ms");
    C.M.add("server.batch_tail_ms", T.Value, "ms");
    C.M.add("server.batch_tail_pct", T.Pct, "%");
    C.M.add("server.batch_tail_samples", double(T.Samples), "count");
    uint64_t Bytes = 0, Pauses = 0, Batches = 0;
    for (const server::MuxConnStats &S : Stats.Connections) {
      Bytes += S.BytesIn + S.BytesOut;
      Pauses += S.BackpressurePauses;
      Batches += S.Batches;
    }
    C.M.add("server.bytes_per_batch",
            Batches ? double(Bytes) / double(Batches) : 0.0, "bytes");
    C.M.add("server.backpressure_pauses", double(Pauses), "count");
  }
  C.M.add("server.transport_ms", SocketP50 - InprocP50, "ms");
  SessionCache::Stats S = Server->stats().Cache;
  C.M.add("query.session_hit_rate",
          S.ProgramHits + S.ProgramMisses
              ? double(S.ProgramHits) / double(S.ProgramHits + S.ProgramMisses)
              : 0.0,
          "ratio");
}

void storeProbe(Context &C, const ProbeInput &In) {
  // The sample: every request of the sample batches, once.
  std::vector<CheckRequest> Requests;
  std::unordered_set<std::string> Seen;
  for (const auto &B : In.Batches)
    for (const CheckRequest &R : B)
      if (Seen.insert(R.Name).second)
        Requests.push_back(R);
  std::vector<CheckResponse> Responses = QueryEngine({.Jobs = 1}).runAll(Requests);
  std::vector<std::string> Bytes = responseBytes(Responses);
  std::vector<std::string> Canonical;
  for (const std::string &S : In.Specs)
    Canonical.push_back(ModelRegistry::print(*ModelRegistry::parse(S)));
  std::vector<std::string> Keys;
  for (const CheckRequest &R : Requests)
    Keys.push_back(VerdictStore::makeKey(R.Name, R.Source, Canonical,
                                         R.Explain, R.WantOutcomes,
                                         R.CandidateCap));

  std::string Path = C.path("probe-" + std::to_string(::getpid()) + ".store");
  ::unlink(Path.c_str());
  std::string Error;
  std::unique_ptr<VerdictStore> S = VerdictStore::open(Path, &Error);
  if (!S) {
    C.L.check(false, "probe store: " + Error);
    return;
  }
  int64_t T0 = nowNs();
  for (size_t I = 0; I < Keys.size(); ++I)
    C.L.check(S->append(Keys[I], Bytes[I]), "probe store append");
  C.M.add("store.append_us",
          double(nowNs() - T0) * 1e-3 / double(std::max<size_t>(1, Keys.size())),
          "us");
  S.reset();
  struct stat St{};
  C.M.add("store.log_bytes",
          ::stat(Path.c_str(), &St) == 0 ? double(St.st_size) : 0.0, "bytes");
  std::vector<double> OpenMs;
  for (unsigned Rep = 0; Rep < 5; ++Rep) {
    S.reset();
    int64_t O0 = nowNs();
    S = VerdictStore::open(Path, &Error);
    OpenMs.push_back(double(nowNs() - O0) * 1e-6);
  }
  C.M.add("store.open_ms", median(OpenMs), "ms");
  std::vector<std::optional<std::string>> Docs(Keys.size());
  C.M.add("store.lookup_us", 1e-3 * nsPerOp(0.03, Keys.size(), [&] {
            for (size_t I = 0; I < Keys.size(); ++I)
              Docs[I] = S->lookup(Keys[I]);
          }),
          "us");
  uint64_t Hits = 0;
  for (size_t I = 0; I < Docs.size(); ++I) {
    Hits += Docs[I].has_value();
    C.L.check(Docs[I] && *Docs[I] == Bytes[I], "probe store lookup");
  }
  C.M.add("store.hit_rate",
            Keys.empty() ? 0.0 : double(Hits) / double(Keys.size()), "ratio");
  C.M.add("store.decode_us", 1e-3 * nsPerOp(0.03, Docs.size(), [&] {
            for (const auto &D : Docs) {
              CheckResponse R;
              std::optional<JsonValue> V = parseJson(D ? *D : "");
              bool Ok = V && responseFromJson(*V, R);
              keep(Ok);
            }
          }),
          "us");
  S.reset();
  ::unlink(Path.c_str());

  if (!C.M.find("store.fill_requests_per_s")) {
    S = VerdictStore::open(Path, &Error);
    int64_t F0 = nowNs();
    std::vector<CheckResponse> Filled =
        QueryEngine({.Jobs = 1, .Store = S.get()}).runAll(Requests);
    C.M.add("store.fill_requests_per_s",
            double(Requests.size()) / secondsSince(F0), "1/s");
    C.L.check(responseBytes(Filled) == Bytes, "probe store fill bytes");
    S.reset();
    ::unlink(Path.c_str());
  }
  if (!C.M.find("store.nostore_requests_per_s")) {
    int64_t N0 = nowNs();
    std::vector<CheckResponse> Plain = QueryEngine({.Jobs = 1}).runAll(Requests);
    C.M.add("store.nostore_requests_per_s",
            double(Requests.size()) / secondsSince(N0), "1/s");
    keep(Plain);
  }
}

} // namespace

void runProbes(Context &C, ProbeInput &In) {
  // Parse, facts, and candidate enumeration over the pool.
  std::vector<ProgramCandidates> Progs(In.P->Programs.size());
  C.M.add("litmus.parse_us", 1e-3 * nsPerOp(0.05, Progs.size(), [&] {
            for (size_t I = 0; I < Progs.size(); ++I)
              Progs[I].Parse = parseProgram(In.P->Programs[I].Source);
          }),
          "us");
  for (const ProgramCandidates &P : Progs)
    C.L.check(bool(P.Parse), "probe parse: " + P.Parse.Error);
  C.M.add("lint.facts_us", 1e-3 * nsPerOp(0.03, Progs.size(), [&] {
            for (ProgramCandidates &P : Progs)
              P.Facts = computeFacts(P.Parse.Prog);
          }),
          "us");
  uint64_t Total = 0;
  for (ProgramCandidates &P : Progs)
    forEachCandidate(P.Parse.Prog, [&](const Candidate &Cand) {
      ++Total;
      if (Total <= kMaxProbeCandidates)
        P.Candidates.push_back(Cand.X);
      return true;
    });
  C.M.add("enumerate.candidates", double(Total), "count");
  C.M.add("enumerate.candidate_us", 1e-3 * nsPerOp(0.1, Total, [&] {
            uint64_t N = 0;
            for (const ProgramCandidates &P : Progs)
              forEachCandidate(P.Parse.Prog, [&](const Candidate &) {
                ++N;
                return true;
              });
            keep(N);
          }),
          "us");

  if (In.Executions.empty())
    for (const ProgramCandidates &P : Progs)
      In.Executions.insert(In.Executions.end(), P.Candidates.begin(),
                           P.Candidates.end());
  relationProbe(C, In.Executions);
  modelsProbe(C, In, Progs);
  queryServerProbe(C, In);
  storeProbe(C, In);

  if (!C.M.find("synth.search_s")) {
    // The workload ran no search of its own: mirror the pool's largest
    // (x86, |E| = 4) with spans.
    Tracer T(true);
    std::vector<Execution> Forbid, Allow;
    auto [Bases, Placements] = mirrorSynthesis(T, 4, Forbid, Allow);
    synthMetrics(C, T, 1, Bases, Placements, Forbid.size(), Allow.size());
  }
}

} // namespace perfbench
