//===- pool.cpp - Replay pool, tracer, statistics -------------------------------==//

#include "bench.h"

#include "litmus/FromExecution.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "synth/Conformance.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <unordered_set>

using namespace tmw;

namespace perfbench {

const std::vector<std::string> kMatrixSpecs = {
    "tsc",           "x86",           "power",
    "armv8",         "power/-TxnOrder", "power8",
    "sc",            "power/-StrongIsol", "power/+baseline",
    "armv8-rtl",     "x86/-TxnOrder", "armv8/-TxnOrder",
    "armv8-silicon", "x86/-StrongIsol", "x86/+baseline",
    "armv8/-StrongIsol", "armv8/+baseline", "power/-thb",
    "power/-tprop1", "x86-impl",      "power8/-TxnOrder",
    "tsc-impl",      "sc/+baseline",  "armv8-rtl/-TxnOrder"};

const std::vector<std::string> kServeSpecs = {"sc",    "tsc",   "x86",
                                              "power", "armv8", "cpp"};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Rank - double(Lo)) * (V[Lo + 1] - V[Lo]);
}

double hostKernelNs(double Seconds) {
  uint64_t A[64], B[64], Out[64];
  for (unsigned I = 0; I < 64; ++I) {
    A[I] = 0x9e3779b97f4a7c15ull * (I + 1);
    B[I] = 0xbf58476d1ce4e5b9ull * (I + 3);
  }
  uint64_t Ops = 0;
  int64_t T0 = nowNs();
  do {
    for (unsigned Rep = 0; Rep < 64; ++Rep, ++Ops) {
      for (unsigned I = 0; I < 64; ++I) {
        uint64_t Row = 0;
        for (uint64_t M = A[I]; M; M &= M - 1)
          Row |= B[__builtin_ctzll(M)];
        Out[I] = Row;
      }
      std::memcpy(A, Out, sizeof(A));
      A[Rep] ^= Ops;
    }
  } while (secondsSince(T0) < Seconds);
  keep(A);
  return double(nowNs() - T0) / double(Ops);
}

void HostCalibration::sample() {
  if (!SliceNs.empty() && secondsSince(Last) < kSliceEvery)
    return;
  SliceNs.push_back(hostKernelNs(kSliceSeconds));
  Last = nowNs();
}

double HostCalibration::scale() const {
  double Fast = quantile(SliceNs, kFastQuantile);
  return Fast > 0 ? kReferenceKernelNs / Fast : 1.0;
}

std::string HostCalibration::describe() const {
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "slices=%zu fast_ns=%.6g median_ns=%.6g scale=%.6g",
                SliceNs.size(), quantile(SliceNs, kFastQuantile),
                median(SliceNs), scale());
  return Line;
}

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  if (V.size() < 11) {
    T.Value = V.back();
    return T;
  }
  // Index I leaves V.size() - 1 - I samples above it; keep ten.
  size_t I = V.size() - 11;
  T.Value = V[I];
  T.Pct = 100.0 * double(I + 1) / double(V.size());
  return T;
}

uint64_t fnv(std::string_view Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

uint32_t Tracer::intern(std::string_view Name) {
  for (uint32_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.emplace_back(Name);
  Totals.emplace_back();
  return static_cast<uint32_t>(Names.size() - 1);
}

void Tracer::push(uint32_t Name, uint64_t Req) {
  int32_t Index = -1;
  if (Kept.size() < kKeep) {
    Index = static_cast<int32_t>(Kept.size());
    int32_t Parent = Stack.empty() ? -1 : Stack.back().Index;
    Kept.push_back({Name, Parent, Req, 0, 0});
  }
  Stack.push_back({Name, Index, Req, nowNs(), 0});
  if (Index >= 0)
    Kept[Index].Start = Stack.back().Start;
}

void Tracer::pop() {
  int64_t End = nowNs();
  Frame F = Stack.back();
  Stack.pop_back();
  int64_t Dur = End - F.Start;
  SpanTotals &T = Totals[F.Name];
  ++T.Count;
  T.TotalNs += Dur;
  T.SelfNs += Dur - F.ChildNs;
  if (!Stack.empty())
    Stack.back().ChildNs += Dur;
  if (F.Index >= 0)
    Kept[F.Index].End = End;
  ++Recorded;
}

void Tracer::record(uint32_t Name, int64_t Start, int64_t End, uint64_t Req) {
  if (!On)
    return;
  SpanTotals &T = Totals[Name];
  ++T.Count;
  T.TotalNs += End - Start;
  T.SelfNs += End - Start;
  if (Kept.size() < kKeep)
    Kept.push_back(
        {Name, Stack.empty() ? -1 : Stack.back().Index, Req, Start, End});
  ++Recorded;
}

const SpanTotals &Tracer::totals(std::string_view Name) const {
  static const SpanTotals None;
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return Totals[I];
  return None;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# totals: name count total_ns self_ns\n");
  for (size_t I = 0; I < Names.size(); ++I)
    std::fprintf(F, "T\t%s\t%llu\t%lld\t%lld\n", Names[I].c_str(),
                 static_cast<unsigned long long>(Totals[I].Count),
                 static_cast<long long>(Totals[I].TotalNs),
                 static_cast<long long>(Totals[I].SelfNs));
  std::fprintf(F, "# spans (first %zu of %llu): index name parent request "
                  "start_ns end_ns\n",
               Kept.size(), static_cast<unsigned long long>(Recorded));
  for (size_t I = 0; I < Kept.size(); ++I) {
    const Span &S = Kept[I];
    std::fprintf(F, "S\t%zu\t%s\t%d\t%llu\t%lld\t%lld\n", I,
                 Names[S.Name].c_str(), S.Parent,
                 static_cast<unsigned long long>(S.Req),
                 static_cast<long long>(S.Start),
                 static_cast<long long>(S.End));
  }
  return std::fclose(F) == 0;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (Metric &X : M)
    if (X.Name == Name) {
      X.Value = Value;
      X.Unit = Unit;
      return;
    }
  M.push_back({Name, Value, Unit});
}

const Metric *Metrics::find(std::string_view Name) const {
  for (const Metric &X : M)
    if (X.Name == Name)
      return &X;
  return nullptr;
}

// ---------------------------------------------------------------------------
// The replay pool.
// ---------------------------------------------------------------------------

namespace {

struct SuiteSpec {
  Arch A;
  const char *Tm;
  const char *Baseline;
  unsigned MaxEvents;
};

void addExecution(Pool &P, const Execution &X, Role R, const char *Tm,
                  const std::string &Name) {
  ExecutionToProgram T = programFromExecution(X, Name);
  PoolProgram Prog;
  Prog.Name = Name;
  Prog.Source = printDsl(T.Prog);
  Prog.R = R;
  Prog.TmSpec = Tm;
  P.Programs.push_back(std::move(Prog));
}

} // namespace

Pool buildPool() {
  static const SuiteSpec Suites[] = {
      {Arch::X86, "x86", "x86/+baseline", 4},
      {Arch::Power, "power", "power/+baseline", 3},
      {Arch::Armv8, "armv8", "armv8/+baseline", 3},
  };
  Pool P;
  for (const SuiteSpec &S : Suites) {
    std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse(S.Tm);
    std::unique_ptr<MemoryModel> Base = ModelRegistry::parse(S.Baseline);
    Vocabulary V = Vocabulary::forArch(S.A);
    std::unordered_set<uint64_t> AllowSeen;
    for (unsigned N = 2; N <= S.MaxEvents; ++N) {
      ForbidSuite F = synthesizeForbid(*Tm, *Base, V, N);
      std::vector<Execution> Allow = relaxationsOf(F.Tests, V);
      char Name[64];
      for (size_t I = 0; I < F.Tests.size(); ++I) {
        std::snprintf(Name, sizeof(Name), "%s-F%u-%03zu", S.Tm, N, I);
        addExecution(P, F.Tests[I], Role::Forbid, S.Tm, Name);
      }
      // Relaxations of different |E| can coincide; keep the first.
      size_t K = 0;
      for (const Execution &X : Allow) {
        if (!AllowSeen.insert(canonicalHash(X)).second)
          continue;
        std::snprintf(Name, sizeof(Name), "%s-A%u-%03zu", S.Tm, N, K++);
        addExecution(P, X, Role::Allow, S.Tm, Name);
      }
    }
  }
  static const Arch Checked[] = {Arch::SC, Arch::TSC, Arch::X86, Arch::Power,
                                 Arch::Armv8};
  for (const CorpusEntry &E : sharedCorpus()) {
    PoolProgram Prog;
    Prog.Name = E.Name;
    Prog.Source = printDsl(E.Prog);
    Prog.R = Role::Corpus;
    for (Arch A : Checked)
      if (std::optional<bool> V = expectedVerdict(E, A))
        Prog.Expected.push_back({ModelRegistry::archSpecName(A), *V});
    P.Programs.push_back(std::move(Prog));
  }
  uint64_t H = fnv("");
  for (const PoolProgram &Prog : P.Programs) {
    H = fnv(Prog.Name, H);
    H = fnv(Prog.Source, H);
  }
  P.Digest = H;
  return P;
}

void checkRules(const PoolProgram &P, const std::vector<std::string> &Specs,
                const CheckResponse &Resp,
                const std::vector<std::string> &Exceptions, Ledger &L) {
  if (!Resp || Resp.Verdicts.size() != Specs.size()) {
    L.check(false, P.Name + ": error response '" + Resp.Error + "'");
    return;
  }
  auto Allowed = [&](std::string_view Spec) -> const ModelVerdict * {
    for (size_t I = 0; I < Specs.size(); ++I)
      if (Specs[I] == Spec)
        return &Resp.Verdicts[I];
    return nullptr;
  };
  if (P.R == Role::Corpus) {
    for (const auto &[Spec, Expect] : P.Expected)
      if (const ModelVerdict *V = Allowed(Spec))
        L.check(V->Allowed == Expect,
                P.Name + ": corpus verdict under " + Spec);
    return;
  }
  bool Exception = std::find(Exceptions.begin(), Exceptions.end(), P.Name) !=
                   Exceptions.end();
  if (const ModelVerdict *V = Allowed(P.TmSpec)) {
    // Forbid tests are forbidden under the TM model, except the listed
    // ones, which the TM model is measured to allow; Allow tests are
    // allowed.
    bool Expect = P.R == Role::Allow || Exception;
    L.check(V->Allowed == Expect, P.Name + ": verdict under " + P.TmSpec);
  }
  if (P.R == Role::Forbid)
    if (const ModelVerdict *V = Allowed(P.TmSpec + "/+baseline"))
      L.check(V->Allowed, P.Name + ": verdict under the baseline");
}

std::vector<CheckRequest> poolRequests(const Pool &P,
                                       const std::vector<std::string> &Specs,
                                       bool Explain, bool WantOutcomes) {
  std::vector<CheckRequest> Out;
  Out.reserve(P.Programs.size());
  for (const PoolProgram &Prog : P.Programs) {
    CheckRequest R;
    R.Name = Prog.Name;
    R.Source = Prog.Source;
    R.ModelSpecs = Specs;
    R.Explain = Explain;
    R.WantOutcomes = WantOutcomes;
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<std::string>
responseBytes(const std::vector<CheckResponse> &Responses) {
  std::vector<std::string> Out;
  Out.reserve(Responses.size());
  for (const CheckResponse &R : Responses)
    Out.push_back(toJson(R));
  return Out;
}

void sampleBatches(Rng &R, const std::vector<CheckRequest> &Requests,
                   const std::vector<CheckResponse> &Reference, size_t Count,
                   size_t Size, std::vector<std::vector<CheckRequest>> &Batches,
                   std::vector<std::string> &Docs) {
  std::vector<size_t> Index(Requests.size());
  for (size_t I = 0; I < Index.size(); ++I)
    Index[I] = I;
  for (size_t B = 0; B < Count; ++B) {
    // A partial Fisher-Yates shuffle: Size distinct requests.
    std::vector<CheckRequest> Batch;
    std::vector<CheckResponse> Expect;
    for (size_t K = 0; K < Size && K < Index.size(); ++K) {
      std::swap(Index[K], Index[K + R.below(Index.size() - K)]);
      Batch.push_back(Requests[Index[K]]);
      Expect.push_back(Reference[Index[K]]);
    }
    Batches.push_back(std::move(Batch));
    Docs.push_back(responsesToJson(Expect));
  }
}

} // namespace perfbench
