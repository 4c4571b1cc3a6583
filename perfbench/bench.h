//===- bench.h - Shared pieces of the checker benchmark ---------*- C++ -*-==//
///
/// \file
/// The benchmark drives the tmw layers from outside, through their public
/// functions only. This header holds what the four workloads share: the
/// clock, the seeded generator, the span tracer of the traced run, the
/// replay pool built in set-up, the correctness ledger, and the metric
/// sink the benchmark prints as JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "execution/Execution.h"
#include "models/MemoryModel.h"
#include "query/Query.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Clock, statistics, and hashing.
// ---------------------------------------------------------------------------

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(int64_t StartNs) {
  return double(nowNs() - StartNs) * 1e-9;
}

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);

/// The \p Q quantile of \p V (0 <= Q <= 1), interpolated between the two
/// nearest ranks as Python's statistics.quantiles(method="inclusive")
/// does; 0 for an empty vector.
double quantile(std::vector<double> V, double Q);

/// The quantile of unit times the end-to-end timings report. The cores
/// the benchmark gets are shared: the same unit runs in fast and slow
/// phases of the host (up to 2x apart, each lasting from a second to
/// many minutes), and the share of slow phases in a run moves its median by
/// more than any bound worth keeping. The fastest twentieth of the units
/// measures the program on the least contended host; their time scales
/// with the program's work. This needs units short against the fast
/// phases (tens of milliseconds) and hundreds of them in a run.
constexpr double kFastQuantile = 0.05;

/// Nanoseconds per 64x64 boolean-matrix product of a fixed kernel that
/// belongs to the benchmark, not the library, run for \p Seconds: the
/// same code on every commit, so it tells a slow host from a slow change.
double hostKernelNs(double Seconds);

/// The host's speed over one run, from short slices of hostKernelNs
/// between the run's units. Even the fast twentieth of the unit times
/// drifts with the host's load, by up to 30% from one run to the next;
/// the fast twentieth of the slices drifts with it. Scaled by their
/// ratio, unit times are those of a host on which the kernel takes
/// kReferenceKernelNs: over ten 35 s runs of matrix_replay, the spread
/// (interquartile range over median) fell from 0.076 to 0.025.
class HostCalibration {
public:
  static constexpr double kSliceSeconds = 0.01, kSliceEvery = 0.25;
  static constexpr double kReferenceKernelNs = 2500;

  /// Run a slice unless one ran less than kSliceEvery seconds ago.
  void sample();
  /// Multiply seconds measured in this run by this to calibrate them.
  double scale() const;
  /// `slices=... fast_ns=... median_ns=... scale=...` for the report.
  std::string describe() const;

private:
  std::vector<double> SliceNs;
  int64_t Last = 0;
};

/// The highest percentile of \p V that still has at least ten samples
/// beyond it, with that percentile and the sample count. Pct is 0 when
/// fewer than eleven samples exist (the value is then the maximum).
struct Tail {
  double Value = 0;
  double Pct = 0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);

/// FNV-1a 64 over \p Bytes, continuing from \p H.
uint64_t fnv(std::string_view Bytes, uint64_t H = 1469598103934665603ull);

/// Peak resident set size of this process in MiB (VmHWM).
double peakRssMb();

/// Keep \p V alive through the optimiser without touching memory.
template <class T> inline void keep(const T &V) {
  asm volatile("" : : "g"(&V) : "memory");
}

/// splitmix64: the only source of randomness; every workload input is a
/// function of the seed.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

// ---------------------------------------------------------------------------
// Spans of the traced run.
// ---------------------------------------------------------------------------

/// One recorded span: name, interval, the span that caused it, and the
/// request it belongs to.
struct Span {
  uint32_t Name;
  int32_t Parent;
  uint64_t Req;
  int64_t Start, End;
};

/// Per-name totals: calls, inclusive time, and self time (the span minus
/// the part of it its child spans cover).
struct SpanTotals {
  uint64_t Count = 0;
  int64_t TotalNs = 0, SelfNs = 0;
};

/// A single-threaded span recorder. Spans nest as a stack; totals are
/// kept for every span, the raw spans for the first `kKeep` only (written
/// out when the run ends). Disabled, every call is a no-op.
class Tracer {
public:
  static constexpr size_t kKeep = 200000;

  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  uint32_t intern(std::string_view Name);
  void begin(uint32_t Name, uint64_t Req = 0) {
    if (On)
      push(Name, Req);
  }
  void end() {
    if (On)
      pop();
  }
  /// A finished span with no children, for intervals that overlap other
  /// open spans (concurrent connections); its parent is the open span.
  void record(uint32_t Name, int64_t Start, int64_t End, uint64_t Req);

  const SpanTotals &totals(std::string_view Name) const;
  const std::vector<std::string> &names() const { return Names; }
  uint64_t recorded() const { return Recorded; }

  /// Write the totals table and the kept raw spans to \p Path.
  bool write(const std::string &Path) const;

private:
  struct Frame {
    uint32_t Name;
    int32_t Index;
    uint64_t Req;
    int64_t Start, ChildNs;
  };
  void push(uint32_t Name, uint64_t Req);
  void pop();

  bool On;
  std::vector<std::string> Names;
  std::vector<SpanTotals> Totals;
  std::vector<Frame> Stack;
  std::vector<Span> Kept;
  uint64_t Recorded = 0;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, uint32_t Name, uint64_t Req = 0) : T(T) {
    T.begin(Name, Req);
  }
  ~Scope() { T.end(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
};

// ---------------------------------------------------------------------------
// The replay pool.
// ---------------------------------------------------------------------------

/// What a pool program is, which fixes the rule its verdicts must obey.
enum class Role : uint8_t { Forbid, Allow, Corpus };

struct PoolProgram {
  std::string Name;
  /// Inline DSL source (`printDsl` of the program).
  std::string Source;
  Role R = Role::Corpus;
  /// Registry spec of the TM model the test was synthesised against
  /// ("x86", "power", "armv8"); empty for corpus programs.
  std::string TmSpec;
  /// Corpus only: expected reachability by spec name ("sc", "x86", ...).
  std::vector<std::pair<std::string, bool>> Expected;
};

struct Pool {
  std::vector<PoolProgram> Programs;
  /// FNV-1a 64 over every program's name and source, in pool order.
  uint64_t Digest = 0;
};

/// Build the replay pool: x86 Forbid and Allow suites at |E| <= 4, Power
/// and ARMv8 at |E| <= 3, converted to DSL, plus the standard corpus.
/// Independent of the seed.
Pool buildPool();

// ---------------------------------------------------------------------------
// Correctness ledger and metric sink.
// ---------------------------------------------------------------------------

/// Every answer the benchmark checks is one attempt; a wrong or missing
/// answer, or an error, is one failure. The first few failures are kept
/// for the report.
struct Ledger {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Notes;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Notes.size() < 8)
        Notes.push_back(What);
    }
  }
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// `set` unless the metric is already recorded: the probes fill in
  /// only what the workload's own traced loop did not measure.
  void add(const std::string &Name, double Value, const std::string &Unit) {
    if (!find(Name))
      set(Name, Value, Unit);
  }
  const std::vector<Metric> &all() const { return M; }
  const Metric *find(std::string_view Name) const;

private:
  std::vector<Metric> M;
};

/// The 24-spec pool of bench/spec_matrix (the CI verdict-matrix shape).
extern const std::vector<std::string> kMatrixSpecs;
/// The six architecture models served by serve_mixed and store_restart.
extern const std::vector<std::string> kServeSpecs;

/// Check \p Resp against the rules of \p P: synthesised Forbid tests are
/// forbidden under their TM spec and allowed under its baseline, Allow
/// tests allowed under the TM spec, corpus programs match their
/// hand-written expected verdicts. Specs absent from the response are not
/// checked. Programs named in \p Exceptions are known to break the Forbid
/// rule under their TM spec; they are checked to break it exactly there.
/// \p Specs are the request's specs, aligned with `Resp.Verdicts`.
void checkRules(const PoolProgram &P, const std::vector<std::string> &Specs,
                const tmw::CheckResponse &Resp,
                const std::vector<std::string> &Exceptions, Ledger &L);

/// One request per pool program against \p Specs.
std::vector<tmw::CheckRequest> poolRequests(const Pool &P,
                                            const std::vector<std::string> &Specs,
                                            bool Explain, bool WantOutcomes);

/// Canonical JSON of each response (`toJson`), the unit the benchmark
/// compares byte for byte.
std::vector<std::string>
responseBytes(const std::vector<tmw::CheckResponse> &Responses);

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

/// Canonical hashes of a synthesised Forbid suite and of its Allow suite
/// (its one-step relaxations).
struct SuiteHashes {
  std::vector<uint64_t> Forbid, Allow;
};

/// The event count of synth_x86's timed search. The Fig. 7 search at
/// |E| = 5 takes 1.5-2.5 s, too long a unit to land inside the host's
/// fast phases (see kFastQuantile): its run-to-run spread stayed at
/// 0.15-0.19 whatever the run length. At |E| = 4 a unit takes ~50 ms;
/// each run still ends with one |E| = 5 search checked against its
/// reference.
constexpr unsigned kSynthUnitEvents = 4;

/// Everything one run of one workload reads and fills.
struct Context {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Corrupt one reference entry at set-up: the run must then count it.
  bool CorruptReference = false;
  /// Directory for run outputs (sockets, store logs, span dumps).
  std::string OutDir;
  /// Directory holding the reference answers.
  std::string RefDir;

  Tracer T{false};
  Ledger L;
  Metrics M;
  /// Forbid tests the TM model is measured to allow (reference file).
  std::vector<std::string> Exceptions;
  /// Synth reference: canonical hashes of the x86 Forbid / Allow suites
  /// at |E| = kSynthUnitEvents (the timed unit) and at |E| = 5 (Fig. 7).
  SuiteHashes SynthUnit, SynthFig7;
  /// Digest of the generated request stream (same seed, same digest).
  uint64_t StreamDigest = 0;
  uint64_t PoolDigest = 0;
  /// Extra `key: value` lines for the human-readable report.
  std::vector<std::pair<std::string, std::string>> Report;

  void note(const std::string &Key, const std::string &Value) {
    Report.push_back({Key, Value});
  }
  std::string path(const std::string &Leaf) const {
    return OutDir + "/" + Leaf;
  }
};

/// Set-up is repeated this many times per run; `setup_s` is the median.
constexpr unsigned kSetups = 5;

void runSynthX86(Context &C);
void runMatrixReplay(Context &C);
void runServeMixed(Context &C);
void runStoreRestart(Context &C);

/// Inputs of the per-layer probes: the workload's programs, request shape
/// and sample batches.
struct ProbeInput {
  const Pool *P = nullptr;
  std::vector<std::string> Specs;
  bool Explain = false, WantOutcomes = false;
  /// Executions whose relations the kernel probe times (the workload's
  /// own: synthesised tests, or pool candidates when empty).
  std::vector<tmw::Execution> Executions;
  /// 16-request sample batches (the workload's shape) and the canonical
  /// documents they must produce.
  std::vector<std::vector<tmw::CheckRequest>> Batches;
  std::vector<std::string> BatchDocs;
  /// Reference bytes of `poolRequests(*P, Specs, ...)`, in pool order.
  const std::vector<std::string> *PoolRefBytes = nullptr;
};

/// Run every per-layer probe the workload did not measure itself and
/// record the per-layer metrics into \p C.M.
void runProbes(Context &C, ProbeInput &In);

/// The x86 Forbid search (x86 against x86/+baseline) and its Allow
/// relaxations, re-driven through the enumerator, model, and relaxation
/// functions so each call can carry a span. Fills \p Forbid / \p Allow
/// exactly as `synthesizeForbid` + `relaxationsOf` would; returns (bases,
/// placements).
std::pair<uint64_t, uint64_t>
mirrorSynthesis(Tracer &T, unsigned NumEvents,
                std::vector<tmw::Execution> &Forbid,
                std::vector<tmw::Execution> &Allow);

/// Record the synth/enumerate metrics from a traced mirror search.
void synthMetrics(Context &C, const Tracer &T, unsigned Runs,
                  uint64_t Bases, uint64_t Placements, size_t ForbidTests,
                  size_t AllowTests);

/// Fraction of \p T's root span `run` not covered by a child span.
double unattributedFrac(const Tracer &T);

/// Unix-socket client helpers: connect (retrying while the server binds),
/// send everything, append whatever one read returns (false at EOF or on
/// an error).
int connectUnix(const std::string &Path);
bool sendAll(int Fd, std::string_view Data);
bool readSome(int Fd, std::string &Into);

/// \p Count batches of \p Size distinct requests drawn by \p R from
/// \p Requests, and the canonical verdicts document each must produce
/// (from \p Reference, aligned with \p Requests).
void sampleBatches(Rng &R, const std::vector<tmw::CheckRequest> &Requests,
                   const std::vector<tmw::CheckResponse> &Reference,
                   size_t Count, size_t Size,
                   std::vector<std::vector<tmw::CheckRequest>> &Batches,
                   std::vector<std::string> &Docs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
