//===- BenchUtil.h - Shared helpers for the experiment harnesses -*- C++ -*-==//
///
/// \file
/// Table formatting and budget knobs shared by the bench binaries. Each
/// bench regenerates one table or figure of the paper;
/// `TMW_BENCH_BUDGET_SECONDS` and `TMW_BENCH_MAX_EVENTS` scale the searches
/// (defaults keep every binary under a couple of minutes, like the paper's
/// preliminary-results mode in §5.3). `--jobs N` (or `TMW_BENCH_JOBS`)
/// shards the enumeration across N threads. `writeBenchJson` drops a
/// machine-readable `BENCH_<name>.json` next to the binary so the perf
/// trajectory of the hot paths can be tracked across commits.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_BENCH_BENCHUTIL_H
#define TMW_BENCH_BENCHUTIL_H

#include "synth/Conformance.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace tmw::bench {

/// Strictly parse an event bound: digits only, 1 to `kMaxEvents` (the
/// enumerator's and the relation layer's cap). Anything else is a
/// one-line diagnostic naming \p What and exit 2 — never a wrapped or
/// zero bound, nor a search past the cap.
inline unsigned parseEventsStrict(const char *Value, const char *What) {
  const char *End = Value + std::strlen(Value);
  unsigned Parsed = 0;
  auto [P, Ec] = std::from_chars(Value, End, Parsed);
  if (Ec != std::errc() || P != End || Parsed == 0 || Parsed > kMaxEvents) {
    std::fprintf(stderr,
                 "error: %s %s: expected an event count from 1 to %u\n",
                 What, Value, kMaxEvents);
    std::exit(2);
  }
  return Parsed;
}

/// The search budget: `TMW_BENCH_BUDGET_SECONDS` when set — a finite
/// number of seconds, at least 0, else a diagnostic and exit 2 — or
/// \p Default.
inline double budgetSeconds(double Default) {
  const char *S = std::getenv("TMW_BENCH_BUDGET_SECONDS");
  if (!S)
    return Default;
  const char *End = S + std::strlen(S);
  double Parsed = 0;
  auto [P, Ec] = std::from_chars(S, End, Parsed);
  if (Ec != std::errc() || P != End || !std::isfinite(Parsed) || Parsed < 0) {
    std::fprintf(stderr,
                 "error: TMW_BENCH_BUDGET_SECONDS %s: expected a finite "
                 "number of seconds >= 0\n",
                 S);
    std::exit(2);
  }
  return Parsed;
}

/// The event bound: `TMW_BENCH_MAX_EVENTS` when set (see
/// `parseEventsStrict`), else \p Default.
inline unsigned maxEvents(unsigned Default) {
  if (const char *S = std::getenv("TMW_BENCH_MAX_EVENTS"))
    return parseEventsStrict(S, "TMW_BENCH_MAX_EVENTS");
  return Default;
}

/// Strictly parse one jobs value (digits only, positive, in-range); on a
/// malformed value — the old `std::atoi` silently turned `--jobs foo` or
/// an overflow into 0, clamped to 1 — print a one-line diagnostic naming
/// \p What and exit nonzero, matching the tools' file:line-style strict
/// diagnostics.
inline unsigned parseJobsStrict(const char *Value, const char *What) {
  const char *End = Value + std::strlen(Value);
  unsigned Parsed = 0;
  auto [P, Ec] = std::from_chars(Value, End, Parsed);
  if (Ec != std::errc() || P != End || Parsed == 0) {
    std::fprintf(stderr, "error: %s %s: expected a positive integer\n",
                 What, Value);
    std::exit(2);
  }
  return Parsed;
}

/// Strictly parse one non-negative count value (digits only, in-range;
/// 0 is a legitimate explicit value — "unlimited" for the cap-style
/// flags). The one parser behind every tool count flag (`--cap`,
/// `--bases`, `--max-clients`, `--max-findings`, ...): a malformed or
/// out-of-range value is a one-line diagnostic naming \p What + exit 2,
/// never a silently-parsed 0.
inline uint64_t parseCountStrict(const char *Value, const char *What) {
  const char *End = Value + std::strlen(Value);
  uint64_t Parsed = 0;
  auto [P, Ec] = std::from_chars(Value, End, Parsed);
  if (Ec != std::errc() || P != End || Value == End) {
    std::fprintf(stderr, "error: %s %s: expected a non-negative integer\n",
                 What, Value);
    std::exit(2);
  }
  return Parsed;
}

/// Parse the `--jobs N` / `--jobs=N` command-line knob, falling back to
/// `TMW_BENCH_JOBS`, then to \p Default (1: deterministic single-threaded
/// runs unless parallelism is asked for). Malformed values are a
/// diagnostic + exit 2, never a silent 1.
inline unsigned jobs(int Argc, char **Argv, unsigned Default = 1) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc)
      return parseJobsStrict(Argv[I + 1], "--jobs");
    if (std::strncmp(Argv[I], "--jobs=", 7) == 0)
      return parseJobsStrict(Argv[I] + 7, "--jobs");
  }
  if (const char *S = std::getenv("TMW_BENCH_JOBS"))
    return parseJobsStrict(S, "TMW_BENCH_JOBS");
  return Default;
}

inline void header(const char *Title, const char *PaperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title);
  std::printf("reproduces: %s\n", PaperRef);
  std::printf("================================================================\n");
}

inline const char *yesNo(bool B) { return B ? "yes" : "no"; }

/// Run the work-stealing Forbid synthesis across a doubling jobs sweep
/// (1, 2, 4, 8), printing one line per point and returning the entries as
/// a JSON array body (no brackets) for `writeBenchJson`. With a
/// non-binding budget the test count is identical across the sweep; only
/// wall time moves.
inline std::string synthesisJobsSweepJson(const MemoryModel &Tm,
                                          const MemoryModel &Baseline,
                                          const Vocabulary &V,
                                          unsigned NumEvents,
                                          double BudgetSeconds) {
  std::string Json;
  for (unsigned J = 1; J <= 8; J *= 2) {
    ForbidSuite S =
        synthesizeForbid(Tm, Baseline, V, NumEvents, BudgetSeconds, J);
    std::printf("  --jobs %u: %.2fs (%zu tests)\n", J, S.SynthesisSeconds,
                S.Tests.size());
    char Entry[128];
    std::snprintf(Entry, sizeof(Entry),
                  "%s{\"jobs\": %u, \"wall_seconds\": %.4f, \"tests\": %zu}",
                  Json.empty() ? "" : ", ", J, S.SynthesisSeconds,
                  S.Tests.size());
    Json += Entry;
  }
  return Json;
}

/// Write `BENCH_<name>.json` containing \p JsonBody (a complete JSON
/// object) into the working directory. Returns true on success.
inline bool writeBenchJson(const char *Name, const std::string &JsonBody) {
  std::string Path = std::string("BENCH_") + Name + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs(JsonBody.c_str(), F);
  std::fputc('\n', F);
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return true;
}

} // namespace tmw::bench

#endif // TMW_BENCH_BENCHUTIL_H
