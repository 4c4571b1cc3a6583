//===- ContractAudit.h - Differential metadata-contract auditor -*- C++ -*-==//
///
/// \file
/// Mechanical verification of the annotation contracts the engine's
/// caching soundness rests on. Three metadata contracts are load-bearing
/// and, before this subsystem, were checked only by eyeballs:
///
///  * `Axiom::Salt` (models/Axiom.h) — the mask bits a term function
///    reads. The cross-spec evaluation plan hash-conses obligations on
///    `(Term, Mask & Salt)`; an under-declared salt silently aliases
///    distinct relations and corrupts verdicts for *every* frontend.
///  * `ExecutionAnalysis::memoTerm` salts — the per-call memoization keys
///    inside compound terms. A memoTerm salt narrower than what the
///    closure actually reads poisons the shared per-candidate cache.
///  * `memoTerm`'s `TxnDependent` flag — whether a cached term survives
///    `invalidateTransactionalState()`. A term that reads the transaction
///    labelling but claims independence serves stale relations to the
///    placement search.
///  * `Axiom::Footprint` (models/Axiom.h) — the vocabulary classes a term
///    can produce edges from. Plan specialization pre-discharges an
///    obligation to its vacuous verdict on every program whose vocabulary
///    is disjoint from the declared footprint; an under-declared
///    footprint silently skips a live constraint and corrupts verdicts.
///  * The *transaction-blind baseline* — a spec that enables no TM axiom
///    (`Axiom::Tm`) reads no transaction. The Forbid search
///    (synth/Conformance.h) prunes a base whose baseline check fails
///    before any placement is tried, and leaves the TM obligations the
///    baseline shares on the base (`settledAxioms`); a baseline term
///    that read the transaction labelling would drop Forbid tests.
///
/// All of them are audited *differentially*, in the Herding Cats spirit of
/// cross-validating model artifacts rather than trusting them: probe
/// executions are drawn from the litmus corpus and from the enumerated
/// candidates (bases and transaction placements) of every architecture's
/// vocabulary, and on each probe every axiom term of every audited model
/// is evaluated several ways that the contracts promise agree:
///
///  1. *Salt soundness* — for every mask bit `b` outside an axiom's
///     declared `Salt`, `Term(A, M)` and `Term(A, M ^ b)` are evaluated
///     on fresh `Recompute`-mode analyses (so memoization cannot mask a
///     discrepancy) and must be bit-identical. A mismatch is an
///     under-declared salt: reported as model/axiom/bit with a witness
///     execution. A companion *precision* report lists salt bits that
///     never changed any probe's output — over-declaration only forfeits
///     plan sharing, so those are advisory, not failures.
///  2. *Memoization coherence* — every term is also evaluated through one
///     shared memoized analysis (reset per probe, shared across all
///     models and masks, as in production) and compared against the fresh
///     recompute: a memoTerm salt narrower than the term's real footprint
///     returns a stale cached relation for some mask pair.
///  3. *Invalidation honesty* — over enumerated bases, terms are
///     evaluated to populate a memoized arena, then each transaction
///     placement mutates the execution and calls
///     `invalidateTransactionalState()` exactly as the placement search
///     does; the re-evaluated cached term must equal a from-scratch
///     recompute. A `TxnDependent=false` entry that reads txn state
///     survives the invalidation and is caught here.
///  4. *Footprint soundness* — on every probe whose execution vocabulary
///     (lint/Lint.h `executionVocabulary`) is disjoint from an axiom's
///     declared `Footprint`, the term's relation must be *empty* (that
///     emptiness is exactly what licenses the plan's vacuous-verdict
///     discharge). A nonempty relation on a disjoint probe is an
///     under-declared footprint — a soundness failure, caught at any
///     audited mask. Over-declaration (up to the always-safe `~0u`) only
///     forfeits specialization and is never reported.
///  5. *Baseline blindness* — for every checked axiom of a spec that
///     enables no TM axiom, the term on each transaction placement of an
///     enumerated base (fresh recompute) must equal its term on the base
///     itself. A mismatch is a baseline that reads transactions.
///
/// The auditor walks `ModelRegistry` / `MemoryModel::axioms()`
/// generically, so new models and axioms are covered with zero new audit
/// code; `tmw_audit` is the CLI (with `--json` for CI) and
/// tests/audit_test.cpp pins the auditor against deliberately broken
/// fixture models.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_AUDIT_CONTRACTAUDIT_H
#define TMW_AUDIT_CONTRACTAUDIT_H

#include "models/MemoryModel.h"

#include <span>
#include <string>
#include <vector>

namespace tmw {

/// The five audit passes (see file comment).
enum class AuditPass : uint8_t { Salt, Memoization, Invalidation,
                                 Footprint, Baseline };

/// Stable lowercase pass name ("salt", "memoization", "invalidation",
/// "footprint", "baseline").
const char *auditPassName(AuditPass P);

/// One contract violation. Every finding is a *soundness* failure: the
/// annotated metadata and the term's observed behaviour disagree on a
/// concrete execution.
struct AuditFinding {
  AuditPass Pass;
  /// Audited model (canonical registry spec, or the model's name for
  /// hand-built instances).
  std::string Model;
  /// Offending axiom-table entry.
  std::string Axiom;
  /// For the salt pass: the flipped mask bit the term turned out to read.
  /// -1 for the other passes.
  int Bit = -1;
  /// Name of the axiom at `Bit` in the model's table, when in range.
  std::string BitName;
  /// Probe provenance, e.g. "corpus:SB+txns#3" or "vocab:x86#17+txn2".
  std::string Probe;
  /// One-line description of the disagreement.
  std::string Detail;
  /// `Execution::dump()` of the witness probe.
  std::string Witness;
};

/// Advisory note: a declared salt bit that no probe's output ever
/// depended on. Over-declaration is sound (it only forfeits cross-spec
/// plan sharing), and the probe set is finite, so this is a hint — never
/// a failure.
struct SaltPrecisionNote {
  std::string Model;
  std::string Axiom;
  int Bit = -1;
  std::string BitName;
};

/// Work accounting of one audit run.
struct AuditCounters {
  uint64_t Probes = 0;        ///< Distinct executions audited (passes 1+2).
  uint64_t CorpusProbes = 0;  ///< ... of which corpus candidates.
  uint64_t VocabProbes = 0;   ///< ... of which enumerated (incl. placements).
  uint64_t Bases = 0;         ///< Bases swept by the invalidation pass.
  uint64_t Placements = 0;    ///< Placements audited by the invalidation pass.
  uint64_t Units = 0;         ///< Distinct (term, mask, salt) audit units.
  uint64_t TermEvals = 0;     ///< Term evaluations performed in total.
  uint64_t FootprintChecks = 0; ///< Emptiness checks on footprint-disjoint
                                ///< (unit, probe) pairs (pass 4).
  uint64_t BaselineChecks = 0;  ///< Placement-against-base comparisons of
                                ///< baseline terms (pass 5).
};

/// Result of one audit run. `sound()` is the CI gate: no resolution
/// error and no soundness finding (precision notes do not count).
struct AuditReport {
  std::vector<AuditFinding> Findings;
  std::vector<SaltPrecisionNote> Precision;
  /// The audited specs, canonical, in audit order.
  std::vector<std::string> Specs;
  AuditCounters Counters;
  unsigned Events = 0;
  /// Non-empty when the run could not start (unknown model spec).
  std::string Error;
  /// True when `MaxFindings` stopped finding collection early (the run is
  /// still unsound; only the report is truncated).
  bool Truncated = false;

  bool sound() const { return Error.empty() && Findings.empty(); }
};

/// Audit configuration. The default caps keep a full-registry audit in
/// CI-smoke territory; raise them (or the event bound) for a deeper
/// sweep. Every cap of 0 means "unlimited".
struct AuditOptions {
  /// Registry specs to audit; empty = `defaultAuditSpecs()`.
  std::vector<std::string> ModelSpecs;
  /// Event bound of the vocabulary enumerations.
  unsigned Events = 3;
  /// Probe caps: candidates per corpus entry (passes 1+2), bases per
  /// vocabulary (all passes), and transaction placements per base.
  uint64_t CorpusCandidateCap = 12;
  uint64_t VocabBaseCap = 40;
  uint64_t PlacementCap = 3;
  /// Probe sources (both on by default).
  bool Corpus = true;
  bool Vocabularies = true;
  /// Collect the advisory salt-precision report.
  bool Precision = true;
  /// Stop recording findings past this count (0 = unlimited).
  uint64_t MaxFindings = 64;
};

/// The default audit matrix: every registered architecture, its
/// `+baseline` configuration (exercising the transaction-independent
/// caching paths), and every named hardware-substitute wrapper.
std::vector<std::string> defaultAuditSpecs();

/// Audit the registry specs of \p O (or the default matrix). Spec
/// resolution failures land in `AuditReport::Error`.
AuditReport auditContracts(const AuditOptions &O = {});

/// Audit pre-resolved model instances. \p Names, when non-empty, labels
/// `Models` in the report (parallel spans); otherwise `name()` is used.
/// This is the entry point the fixture tests drive with deliberately
/// broken models.
AuditReport auditModels(std::span<const MemoryModel *const> Models,
                        std::span<const std::string> Names,
                        const AuditOptions &O = {});

} // namespace tmw

#endif // TMW_AUDIT_CONTRACTAUDIT_H
