//===- micro_relation.cpp - google-benchmark microbenchmarks --------------------==//
///
/// Microbenchmarks of the hot paths of the whole toolflow: relational
/// algebra primitives, per-architecture consistency checks, minimality
/// checking, and candidate enumeration. These bound the throughput of the
/// Table 1/Table 2 searches (the explicit-search counterpart of the
/// paper's SAT-solver columns).
///
//===----------------------------------------------------------------------===//

#include "enumerate/Candidates.h"
#include "enumerate/Relaxation.h"
#include "execution/Builder.h"
#include "litmus/FromExecution.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace tmw;

namespace {

/// IRIW with two transactional writers, \p Copies times over (each copy
/// on its own two locations and four threads): 6 events per copy. One
/// copy takes the packed relation layout (at most 8 events), two (12
/// events) the row layout.
Execution iriwLike(unsigned Copies = 1) {
  ExecutionBuilder B;
  for (unsigned C = 0; C < Copies; ++C) {
    unsigned T = 4 * C;
    LocId X = 2 * C, Y = 2 * C + 1;
    EventId Wx = B.write(T, X, MemOrder::NonAtomic, 1);
    EventId Rx = B.read(T + 1, X);
    EventId Ry = B.read(T + 1, Y);
    EventId Ry2 = B.read(T + 2, Y);
    EventId Rx2 = B.read(T + 2, X);
    EventId Wy = B.write(T + 3, Y, MemOrder::NonAtomic, 1);
    B.rf(Wx, Rx);
    B.rf(Wy, Ry2);
    B.addr(Rx, Ry);
    B.addr(Ry2, Rx2);
    B.txn({Wx});
    B.txn({Wy});
  }
  return B.build();
}

// The relation kernels at 6 events (packed layout) and 12 (row layout).
template <unsigned Copies> void BM_RelationCompose(benchmark::State &State) {
  Execution X = iriwLike(Copies);
  Relation A = X.Po, B = X.com();
  for (auto _ : State)
    benchmark::DoNotOptimize(A.compose(B));
}
BENCHMARK(BM_RelationCompose<1>)->Name("BM_RelationCompose");
BENCHMARK(BM_RelationCompose<2>)->Name("BM_RelationCompose/12events");

template <unsigned Copies>
void BM_TransitiveClosure(benchmark::State &State) {
  Execution X = iriwLike(Copies);
  Relation A = X.Po | X.com();
  for (auto _ : State)
    benchmark::DoNotOptimize(A.transitiveClosure());
}
BENCHMARK(BM_TransitiveClosure<1>)->Name("BM_TransitiveClosure");
BENCHMARK(BM_TransitiveClosure<2>)->Name("BM_TransitiveClosure/12events");

template <unsigned Copies> void BM_AcyclicityCheck(benchmark::State &State) {
  Execution X = iriwLike(Copies);
  Relation A = X.Po | X.com();
  for (auto _ : State)
    benchmark::DoNotOptimize(A.isAcyclic());
}
BENCHMARK(BM_AcyclicityCheck<1>)->Name("BM_AcyclicityCheck");
BENCHMARK(BM_AcyclicityCheck<2>)->Name("BM_AcyclicityCheck/12events");

void BM_DerivedFr(benchmark::State &State) {
  Execution X = iriwLike();
  for (auto _ : State)
    benchmark::DoNotOptimize(X.fr());
}
BENCHMARK(BM_DerivedFr);

// Per-model check cost with a fresh memoized analysis per check (the cost
// a single-model enumeration pays per candidate).
template <typename ModelT> void BM_ModelCheck(benchmark::State &State) {
  ModelT M;
  Execution X = iriwLike();
  for (auto _ : State)
    benchmark::DoNotOptimize(M.check(X));
}
BENCHMARK(BM_ModelCheck<ScModel>)->Name("BM_ModelCheck/SC");
BENCHMARK(BM_ModelCheck<TscModel>)->Name("BM_ModelCheck/TSC");
BENCHMARK(BM_ModelCheck<X86Model>)->Name("BM_ModelCheck/x86");
BENCHMARK(BM_ModelCheck<PowerModel>)->Name("BM_ModelCheck/Power");
BENCHMARK(BM_ModelCheck<Armv8Model>)->Name("BM_ModelCheck/ARMv8");
BENCHMARK(BM_ModelCheck<CppModel>)->Name("BM_ModelCheck/C++");

// The same check with memoization disabled: every derived-relation access
// re-derives, reproducing the uncached pre-ExecutionAnalysis hot path.
template <typename ModelT>
void BM_ModelCheckUncached(benchmark::State &State) {
  ModelT M;
  Execution X = iriwLike();
  for (auto _ : State) {
    ExecutionAnalysis A(X, AnalysisCaching::Recompute);
    benchmark::DoNotOptimize(M.check(A));
  }
}
BENCHMARK(BM_ModelCheckUncached<X86Model>)
    ->Name("BM_ModelCheckUncached/x86");
BENCHMARK(BM_ModelCheckUncached<PowerModel>)
    ->Name("BM_ModelCheckUncached/Power");
BENCHMARK(BM_ModelCheckUncached<Armv8Model>)
    ->Name("BM_ModelCheckUncached/ARMv8");
BENCHMARK(BM_ModelCheckUncached<CppModel>)
    ->Name("BM_ModelCheckUncached/C++");

// All six models on one candidate through one shared analysis — the
// multi-model/ablation workload the memoization layer exists for.
void BM_AllModelsSharedAnalysis(benchmark::State &State) {
  ScModel Sc;
  TscModel Tsc;
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  CppModel Cpp;
  const MemoryModel *Models[] = {&Sc, &Tsc, &X86, &Power, &Armv8, &Cpp};
  Execution X = iriwLike();
  for (auto _ : State) {
    ExecutionAnalysis A(X);
    for (const MemoryModel *M : Models)
      benchmark::DoNotOptimize(M->check(A));
  }
}
BENCHMARK(BM_AllModelsSharedAnalysis);

void BM_AllModelsUncached(benchmark::State &State) {
  ScModel Sc;
  TscModel Tsc;
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  CppModel Cpp;
  const MemoryModel *Models[] = {&Sc, &Tsc, &X86, &Power, &Armv8, &Cpp};
  Execution X = iriwLike();
  for (auto _ : State)
    for (const MemoryModel *M : Models) {
      ExecutionAnalysis A(X, AnalysisCaching::Recompute);
      benchmark::DoNotOptimize(M->check(A));
    }
}
BENCHMARK(BM_AllModelsUncached);

void BM_MinimalityCheck(benchmark::State &State) {
  // The §8.1-style minimal test under x86+TM.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();
  X86Model M;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  for (auto _ : State)
    benchmark::DoNotOptimize(isMinimallyInconsistent(X, M, V));
}
BENCHMARK(BM_MinimalityCheck);

void BM_CanonicalHash(benchmark::State &State) {
  Execution X = iriwLike();
  for (auto _ : State)
    benchmark::DoNotOptimize(canonicalHash(X));
}
BENCHMARK(BM_CanonicalHash);

void BM_CandidateEnumeration(benchmark::State &State) {
  Program P = programFromExecution(iriwLike(), "iriw").Prog;
  for (auto _ : State)
    benchmark::DoNotOptimize(enumerateCandidates(P));
}
BENCHMARK(BM_CandidateEnumeration);

void BM_LitmusConversion(benchmark::State &State) {
  Execution X = iriwLike();
  for (auto _ : State)
    benchmark::DoNotOptimize(programFromExecution(X, "iriw"));
}
BENCHMARK(BM_LitmusConversion);

} // namespace

// BENCHMARK_MAIN, plus a default machine-readable report: unless the
// caller overrides, results are mirrored to BENCH_micro_relation.json so
// the perf trajectory of the hot paths is tracked per run.
int main(int argc, char **argv) {
  std::vector<char *> Args(argv, argv + argc);
  std::string OutFlag = "--benchmark_out=BENCH_micro_relation.json";
  std::string FmtFlag = "--benchmark_out_format=json";
  bool HasOut = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]).rfind("--benchmark_out", 0) == 0)
      HasOut = true;
  if (!HasOut) {
    Args.push_back(OutFlag.data());
    Args.push_back(FmtFlag.data());
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
