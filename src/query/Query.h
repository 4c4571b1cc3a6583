//===- Query.h - The batch litmus-query request/response API ----*- C++ -*-==//
///
/// \file
/// Every experiment in the paper — the Table 1/2 rows, the Fig. 3/7/10
/// studies, the corpus matrix, the CLI — asks one question shape: *for
/// this litmus program, which of these models allow it, and why?* This
/// header is the one request/response vocabulary for that question, the
/// herd7-style service interface any frontend (CLI, bench, CI, a future
/// server) calls instead of hand-rolling its own parse → enumerate →
/// check loop:
///
///  * `CheckRequest` — a program (inline DSL source, or the name of a
///    standard-corpus entry) plus the registry model specs to check it
///    against (including `ImplModel` hardware-substitute specs such as
///    "power8") and per-request options (explain, outcome collection,
///    candidate cap);
///  * `CheckResponse` — per-model verdicts (postcondition reachable or
///    not, consistent-candidate counts, failed axioms with witness
///    events, allowed outcome sets) over *one* shared candidate
///    enumeration, plus error diagnostics and timing;
///  * `BatchTelemetry` — wall-clock and per-worker pool load of a batch.
///
/// `query/QueryEngine.h` evaluates requests (enumerate once, check every
/// model, batch across worker threads); `query/QueryIO.h` gives
/// both sides a stable JSON wire form.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_QUERY_H
#define TMW_QUERY_QUERY_H

#include "enumerate/WorkQueue.h"
#include "litmus/Program.h"
#include "relation/EventSet.h"

#include <string>
#include <vector>

namespace tmw {

/// One litmus query: which of these models allow this program's
/// postcondition, and why?
struct CheckRequest {
  /// Name echoed into the response (defaults to the program's own name).
  std::string Name;
  /// Inline litmus DSL source (the `printDsl` grammar). Exactly one of
  /// `Source` and `Corpus` must be set.
  std::string Source;
  /// Name of a `standardCorpus()` entry, e.g. "SB+txns".
  std::string Corpus;
  /// Registry model specs ("x86", "power/-TxnOrder", "power8", ...).
  /// Empty = the six default architecture models.
  std::vector<std::string> ModelSpecs;
  /// Report the failed axioms (with witness events) of the first
  /// forbidden candidate of each forbidding model.
  bool Explain = false;
  /// Collect each model's allowed outcome set (outcomes of its consistent
  /// candidates, sorted and deduplicated).
  bool WantOutcomes = false;
  /// Stop enumerating after this many candidates (0 = unlimited); a hit
  /// sets `CheckResponse::Truncated` and verdicts cover the visited
  /// prefix only.
  uint64_t CandidateCap = 0;
};

/// One failed axiom of a forbidden candidate.
struct FailedAxiomInfo {
  /// Axiom name, e.g. "TxnOrder".
  std::string Axiom;
  /// Sorted ids of the events witnessing the violation (the cycle /
  /// reflexive point / field of the axiom's term).
  std::vector<EventId> Witness;
};

/// The verdict of one model over one program.
struct ModelVerdict {
  /// Canonical spec of the resolved model (`ModelRegistry::print`).
  std::string Spec;
  /// True when some consistent candidate satisfies the postcondition —
  /// the model *allows* the behaviour the test checks for.
  bool Allowed = false;
  /// Number of candidates the model deems consistent.
  uint64_t Consistent = 0;
  /// Enumeration index of the first forbidden candidate, -1 when the
  /// model allows every candidate.
  int64_t FirstForbidden = -1;
  /// `Explain` only: the failed axioms of that first forbidden candidate.
  std::vector<FailedAxiomInfo> FailedAxioms;
  /// `WantOutcomes` only: the model's allowed outcomes, sorted and
  /// deduplicated.
  std::vector<Outcome> AllowedOutcomes;
};

/// Accounting of the cross-spec evaluation plan (models/EvalPlan.h) —
/// how much work sharing and subsumption saved. Not part of the canonical
/// JSON form: planned and independent evaluation must stay byte-identical
/// there, and these numbers are exactly what differs between them. Only
/// the opt-in telemetry appendix reports them.
struct PlanStats {
  /// Obligations computed / served from the per-candidate verdict cache.
  uint64_t TermEvals = 0, TermHits = 0;
  /// Specs evaluated through their obligations / decided by subsumption.
  uint64_t SpecEvals = 0, SpecShortCircuits = 0;
  /// Obligation verdicts pre-decided by footprint specialization
  /// (models/EvalPlan.h `Specialization`), summed over candidates.
  uint64_t Discharged = 0;
  /// Spec sets (models, spellings and plan) built / served from the
  /// session cache, counted for Planned requests only.
  uint64_t Compiles = 0, CacheHits = 0;

  PlanStats &operator+=(const PlanStats &O) {
    TermEvals += O.TermEvals;
    TermHits += O.TermHits;
    SpecEvals += O.SpecEvals;
    SpecShortCircuits += O.SpecShortCircuits;
    Discharged += O.Discharged;
    Compiles += O.Compiles;
    CacheHits += O.CacheHits;
    return *this;
  }
};

/// Persistent verdict-store traffic of one request (store/VerdictStore.h).
/// Like `PlanStats`, never part of the canonical JSON form: a stored hit
/// and a cold evaluation must emit identical bytes, and these counters are
/// exactly what differs. Telemetry appendix and `--stats` only.
struct StoreTouch {
  /// Store lookups performed / answered from the store / records appended
  /// durably after a cold evaluation.
  uint64_t Lookups = 0, Hits = 0, Appends = 0;

  StoreTouch &operator+=(const StoreTouch &O) {
    Lookups += O.Lookups;
    Hits += O.Hits;
    Appends += O.Appends;
    return *this;
  }
};

/// The engine's answer to one `CheckRequest`.
struct CheckResponse {
  /// Request name (or the parsed program's name when the request left it
  /// empty).
  std::string Name;
  /// Non-empty when the request failed (DSL parse error, unknown corpus
  /// entry, unknown model spec, a program over an enumeration cap or with
  /// an ill-formed candidate shape); the verdicts are then absent.
  std::string Error;
  /// The 1-based source line of a DSL parse error, or of the first lint
  /// error of a program with an ill-formed shape (0 otherwise).
  unsigned ErrorLine = 0;
  /// Candidates enumerated (shared by every model of the request).
  uint64_t Candidates = 0;
  /// True when `CandidateCap` stopped the enumeration early.
  bool Truncated = false;
  /// One verdict per requested model spec, in request order.
  std::vector<ModelVerdict> Verdicts;
  /// Wall-clock seconds spent on this request (not part of the canonical
  /// JSON form — it would break cross-jobs byte-determinism).
  double Seconds = 0;
  /// Plan accounting for this request (zero under independent
  /// evaluation); like `Seconds`, not part of the canonical JSON form.
  PlanStats Plan;
  /// Verdict-store traffic of this request (zero without a store); not
  /// part of the canonical JSON form either.
  StoreTouch Store;

  explicit operator bool() const { return Error.empty(); }
};

/// Batch-level accounting of one `QueryEngine::run`.
struct BatchTelemetry {
  double Seconds = 0;
  uint64_t Programs = 0;
  /// Total candidates enumerated / model checks performed across the
  /// batch.
  uint64_t Candidates = 0, Checks = 0;
  /// Plan accounting summed over the batch's requests.
  PlanStats Plan;
  /// Verdict-store traffic summed over the batch's requests.
  StoreTouch Store;
  /// Per-worker pool load; `BasesVisited` counts candidates here.
  std::vector<WorkerLoad> Workers;
};

} // namespace tmw

#endif // TMW_QUERY_QUERY_H
