//===- spec_matrix.cpp - Cross-spec plan scaling over spec-set size ------------==//
///
/// How does checking cost scale with the *number of specs per request*?
/// The independent path pays every spec's full axiom list per candidate;
/// the planned path (models/EvalPlan.h) hash-conses shared obligations
/// and short-circuits subsumed verdicts, so its marginal cost per added
/// spec falls as the set grows — ablations of a model the set already
/// contains are nearly free, and TSC/SC decide whole hardware columns.
///
/// This bench sweeps a 24-spec pool with the prefix property (each size
/// is a prefix of the next) over set sizes {1, 2, 6, 12, 24}, timing the
/// corpus under `EvalStrategy::Planned` vs `EvalStrategy::Independent`
/// and verifying the canonical response JSON is byte-identical at every
/// point and jobs count. `BENCH_spec_matrix.json` tracks checks/sec for
/// both paths per size; >=1.5x at 6 specs (growing with size) is the
/// regression bar. `--smoke` runs one rep per point for CI.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "litmus/Library.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace tmw;

namespace {

/// The spec pool: the paper's SC/TSC + hardware-TM spec lattice (the
/// "verdict matrix across many configurations" serving shape — the C++
/// model is exercised by the eval-plan tests instead, as a lone software
/// family it shares nothing and only measures itself). Prefix property:
/// the size-K point uses the first K entries, so every point's workload
/// is a superset of the previous one's. The first six form the
/// cross-arch core (shared terms across architectures, an ablation and a
/// wrapper of a model already present); later entries deepen the
/// ablation lattices until every family carries several masks.
const std::vector<const char *> Pool = {
    // 1..6: the cross-arch core.
    "tsc", "x86", "power", "armv8", "power/-TxnOrder", "power8",
    // 7..12: SC plus the first lattice and wrapper points.
    "sc", "power/-StrongIsol", "power/+baseline", "armv8-rtl",
    "x86/-TxnOrder", "armv8/-TxnOrder",
    // 13..24: the wide lattice — ablations, baselines, and NoLB
    // wrappers per hardware family.
    "armv8-silicon", "x86/-StrongIsol", "x86/+baseline",
    "armv8/-StrongIsol", "armv8/+baseline", "power/-thb", "power/-tprop1",
    "x86-impl", "power8/-TxnOrder", "tsc-impl", "sc/+baseline",
    "armv8-rtl/-TxnOrder"};

const std::vector<size_t> Sizes = {1, 2, 6, 12, 24};

std::vector<CheckRequest> makeRequests(const std::vector<CorpusEntry> &Corpus,
                                       size_t NumSpecs, unsigned Reps) {
  std::vector<CheckRequest> Requests;
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (const CorpusEntry &E : Corpus) {
      CheckRequest R;
      R.Corpus = E.Name;
      for (size_t S = 0; S < NumSpecs; ++S)
        R.ModelSpecs.push_back(Pool[S]);
      Requests.push_back(std::move(R));
    }
  return Requests;
}

struct Point {
  size_t Specs = 0;
  uint64_t Candidates = 0, Checks = 0;
  double PlannedSec = 0, IndependentSec = 0;
  uint64_t TermEvals = 0, TermHits = 0, SpecEvals = 0, SpecShortCircuits = 0;
};

} // namespace

int main(int argc, char **argv) {
  bench::header("Spec-set scaling: planned vs independent evaluation",
                "one verdict matrix per commit across many configurations");
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
  unsigned Jobs = bench::jobs(argc, argv, 4);
  const unsigned Reps = Smoke ? 1 : 16;     // batch replication (depth)
  const unsigned Timings = Smoke ? 1 : 5;   // min-of-N timing runs
  std::vector<CorpusEntry> Corpus = standardCorpus();

  std::vector<Point> Points;
  for (size_t NumSpecs : Sizes) {
    std::vector<CheckRequest> Requests = makeRequests(Corpus, NumSpecs, Reps);

    // Timed runs at the bench jobs count, min over `Timings` repetitions.
    Point P;
    P.Specs = NumSpecs;
    P.PlannedSec = P.IndependentSec = 1e18;
    std::vector<CheckResponse> Planned, Independent;
    for (unsigned T = 0; T < Timings; ++T) {
      BatchTelemetry TP;
      Planned = QueryEngine({.Jobs = Jobs, .Strategy = EvalStrategy::Planned})
                    .runAll(Requests, &TP);
      BatchTelemetry TI;
      Independent =
          QueryEngine({.Jobs = Jobs, .Strategy = EvalStrategy::Independent})
              .runAll(Requests, &TI);
      P.PlannedSec = std::min(P.PlannedSec, TP.Seconds);
      P.IndependentSec = std::min(P.IndependentSec, TI.Seconds);
      P.Candidates = TP.Candidates;
      P.Checks = TP.Checks;
      P.TermEvals = TP.Plan.TermEvals;
      P.TermHits = TP.Plan.TermHits;
      P.SpecEvals = TP.Plan.SpecEvals;
      P.SpecShortCircuits = TP.Plan.SpecShortCircuits;
    }

    // The plan must not change a byte of the canonical responses — at the
    // bench jobs count and single-threaded.
    std::string PlanJson = responsesToJson(Planned, nullptr);
    std::string IndepJson = responsesToJson(Independent, nullptr);
    std::vector<CheckResponse> Planned1 =
        QueryEngine({.Jobs = 1, .Strategy = EvalStrategy::Planned})
            .runAll(Requests);
    std::vector<CheckResponse> Independent1 =
        QueryEngine({.Jobs = 1, .Strategy = EvalStrategy::Independent})
            .runAll(Requests);
    if (PlanJson != IndepJson ||
        PlanJson != responsesToJson(Planned1, nullptr) ||
        IndepJson != responsesToJson(Independent1, nullptr)) {
      std::fprintf(stderr,
                   "MISMATCH at %zu specs: planned and independent responses "
                   "are not byte-identical\n",
                   NumSpecs);
      return 1;
    }
    Points.push_back(P);
  }

  std::printf("%5s %10s %10s %12s %12s %8s %9s %9s\n", "specs", "checks",
              "cand", "indep s", "planned s", "speedup", "term-hit", "short-c");
  std::string PointsJson;
  double SpeedupAt6 = 0;
  for (const Point &P : Points) {
    double Speedup = P.IndependentSec / P.PlannedSec;
    if (P.Specs == 6)
      SpeedupAt6 = Speedup;
    double HitRate =
        P.TermEvals + P.TermHits
            ? double(P.TermHits) / double(P.TermEvals + P.TermHits)
            : 0;
    double ShortRate =
        P.SpecEvals + P.SpecShortCircuits
            ? double(P.SpecShortCircuits) /
                  double(P.SpecEvals + P.SpecShortCircuits)
            : 0;
    std::printf("%5zu %10llu %10llu %12.4f %12.4f %7.2fx %8.1f%% %8.1f%%\n",
                P.Specs, static_cast<unsigned long long>(P.Checks),
                static_cast<unsigned long long>(P.Candidates),
                P.IndependentSec, P.PlannedSec, Speedup, 100 * HitRate,
                100 * ShortRate);
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "%s{\"specs\": %zu, \"checks\": %llu, \"candidates\": %llu, "
        "\"independent_seconds\": %.4f, \"planned_seconds\": %.4f, "
        "\"independent_checks_per_sec\": %.0f, "
        "\"planned_checks_per_sec\": %.0f, \"speedup\": %.3f, "
        "\"term_hit_rate\": %.3f, \"short_circuit_rate\": %.3f}",
        PointsJson.empty() ? "" : ", ", P.Specs,
        static_cast<unsigned long long>(P.Checks),
        static_cast<unsigned long long>(P.Candidates), P.IndependentSec,
        P.PlannedSec, P.Checks / P.IndependentSec, P.Checks / P.PlannedSec,
        Speedup, HitRate, ShortRate);
    PointsJson += Buf;
  }
  std::printf("\nplanned == independent byte-for-byte at every point "
              "(jobs 1 and %u).\n",
              Jobs);

  char Json[512];
  std::snprintf(Json, sizeof(Json),
                "{\"bench\": \"spec_matrix\", \"programs\": %zu, \"reps\": %u, "
                "\"jobs\": %u, \"speedup_at_6\": %.3f, \"points\": [",
                Corpus.size(), Reps, Jobs, SpeedupAt6);
  bench::writeBenchJson("spec_matrix", std::string(Json) + PointsJson + "]}");
  return 0;
}
