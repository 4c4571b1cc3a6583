//===- fig7_synthesis_distribution.cpp - Fig. 7 --------------------------------==//
///
/// Regenerates Fig. 7: the distribution of discovery times across the
/// largest-bound x86 Forbid synthesis. The paper's observation — "many
/// tests are found quickly: 98% within 6% of the total synthesis time" —
/// is a property of the search order, and holds for the explicit search
/// too: it visits small-skeleton candidates first.
///
/// Prints a cumulative textual plot: % of tests found vs % of synthesis
/// time, then sweeps `--jobs` over the work-stealing synthesis and emits
/// `BENCH_fig7_synthesis_distribution.json` (distribution stats plus the
/// per-jobs wall times).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/ModelRegistry.h"
#include "models/X86Model.h"
#include "synth/Conformance.h"

#include <algorithm>
#include <string>

using namespace tmw;

int main(int argc, char **argv) {
  bench::header(
      "Fig. 7: distribution of synthesis times for the x86 Forbid tests",
      "Fig. 7; §5.3");

  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  unsigned N = bench::maxEvents(5);
  double Budget = bench::budgetSeconds(180.0);
  unsigned Jobs = bench::jobs(argc, argv);

  ForbidSuite S = synthesizeForbid(Tm, *Baseline, V, N, Budget, Jobs);
  std::printf("|E| = %u: %zu tests, synthesis %.2fs (%u job%s), "
              "complete: %s\n\n",
              N, S.Tests.size(), S.SynthesisSeconds, Jobs,
              Jobs == 1 ? "" : "s", bench::yesNo(S.Complete));
  if (S.Tests.empty())
    return 0;

  std::vector<double> Times = S.FoundAtSeconds;
  std::sort(Times.begin(), Times.end());

  std::printf("%10s %10s  cumulative tests found\n", "time-(%)",
              "tests-(%)");
  for (unsigned Pct = 5; Pct <= 100; Pct += 5) {
    double Cutoff = S.SynthesisSeconds * Pct / 100.0;
    unsigned Found = static_cast<unsigned>(
        std::upper_bound(Times.begin(), Times.end(), Cutoff) -
        Times.begin());
    double FoundPct = 100.0 * Found / Times.size();
    std::printf("%9u%% %9.1f%%  ", Pct, FoundPct);
    for (unsigned I = 0; I < static_cast<unsigned>(FoundPct / 2); ++I)
      std::printf("#");
    std::printf("\n");
  }

  // The paper's headline numbers for its 34-hour |E|=7 run.
  double Half = S.SynthesisSeconds * 0.06;
  unsigned FoundEarly = static_cast<unsigned>(
      std::upper_bound(Times.begin(), Times.end(), Half) - Times.begin());
  double EarlyPct = 100.0 * FoundEarly / Times.size();
  std::printf("\nFound within the first 6%% of synthesis time: %.1f%% "
              "(paper: 98%% of the 7-event tests within 6%% = 2h of 34h)\n",
              EarlyPct);

  // The same synthesis across a jobs sweep (work-stealing pool): within
  // budget the test set is deterministic, so only the wall time moves.
  std::printf("\nJobs sweep (work-stealing):\n");
  std::string SweepJson =
      bench::synthesisJobsSweepJson(Tm, *Baseline, V, N, Budget);

  char Head[256];
  std::snprintf(Head, sizeof(Head),
                "{\"bench\": \"fig7_synthesis_distribution\", "
                "\"num_events\": %u, \"jobs\": %u, \"tests\": %zu, "
                "\"synthesis_seconds\": %.4f, "
                "\"found_within_6pct\": %.2f, \"jobs_sweep\": [",
                N, Jobs, S.Tests.size(), S.SynthesisSeconds, EarlyPct);
  bench::writeBenchJson("fig7_synthesis_distribution",
                        std::string(Head) + SweepJson + "]}");
  return 0;
}
