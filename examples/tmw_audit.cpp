//===- tmw_audit.cpp - Metadata-contract auditor CLI --------------------------==//
///
/// CLI frontend of the contract auditor (audit/ContractAudit.h): verifies
/// the `Axiom::Salt` term-identity contract, memoization coherence,
/// `invalidateTransactionalState()` honesty, and `Axiom::Footprint`
/// vocabulary soundness for every axiom of the audited model specs,
/// differentially over probe executions from the litmus corpus and every
/// architecture's enumerated vocabulary.
///
/// Usage:   ./tmw_audit [options]
/// Example: ./tmw_audit --json > contract_audit.json
///          ./tmw_audit --model power,power8 --events 4
///
/// Flags:
///   --model <spec>    audit this registry spec instead of the default
///                     matrix (every architecture, its +baseline
///                     configuration, and the hardware-substitute
///                     wrappers). Repeatable, and <spec> may be a
///                     comma-separated list ("sc,tsc,x86") — the same
///                     strict parser as `litmus_tool --model`: every
///                     unknown spec in a batch gets its own diagnostic
///                     and the tool exits 2.
///   --json            emit the canonical `tmw-contract-audit-v1` report
///                     (audit/AuditIO.h) on stdout instead of text.
///   --events N        vocabulary enumeration event bound (default 3).
///   --bases N         cap on bases audited per vocabulary (default 40,
///                     0 = unlimited).
///   --placements N    cap on transaction placements per base (default 3,
///                     0 = unlimited).
///   --corpus-cap N    cap on candidates per corpus entry (default 12,
///                     0 = unlimited).
///   --max-findings N  stop recording findings past N (default 64,
///                     0 = unlimited; the exit status still reflects
///                     every finding).
///   --no-corpus       skip the corpus probes.
///   --no-vocab        skip the vocabulary probes (and with them the
///                     invalidation pass, which needs placements).
///   --no-precision    skip the advisory salt-precision report.
///
/// Exit status: 0 when every contract held, 1 on any soundness finding,
/// 2 on usage errors (unknown flag or model spec).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "audit/AuditIO.h"
#include "audit/ContractAudit.h"
#include "models/ModelRegistry.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace tmw;

namespace {

bool addModels(const char *Value, std::vector<std::string> &Specs) {
  std::string Error;
  if (ModelRegistry::splitSpecList(Value, Specs, &Error)) {
    return true;
  }
  std::fprintf(stderr, "error: --model %s: %s\n", Value, Error.c_str());
  return false;
}

void printText(const AuditReport &R) {
  std::printf("contract audit over %zu specs:", R.Specs.size());
  for (const std::string &S : R.Specs)
    std::printf(" %s", S.c_str());
  std::printf("\n");
  std::printf(
      "  %llu probes (%llu corpus, %llu vocabulary), %llu bases x "
      "%llu placements, %llu units, %llu term evaluations, %llu "
      "footprint checks\n",
      static_cast<unsigned long long>(R.Counters.Probes),
      static_cast<unsigned long long>(R.Counters.CorpusProbes),
      static_cast<unsigned long long>(R.Counters.VocabProbes),
      static_cast<unsigned long long>(R.Counters.Bases),
      static_cast<unsigned long long>(R.Counters.Placements),
      static_cast<unsigned long long>(R.Counters.Units),
      static_cast<unsigned long long>(R.Counters.TermEvals),
      static_cast<unsigned long long>(R.Counters.FootprintChecks));

  for (const AuditFinding &F : R.Findings) {
    std::printf("FINDING [%s] %s / %s", auditPassName(F.Pass),
                F.Model.c_str(), F.Axiom.c_str());
    if (F.Bit >= 0)
      std::printf(" bit %d (%s)", F.Bit, F.BitName.c_str());
    std::printf("\n  probe %s: %s\n", F.Probe.c_str(), F.Detail.c_str());
  }
  if (R.Truncated)
    std::printf("(finding list truncated)\n");

  if (!R.Precision.empty()) {
    std::printf("advisory: %zu declared salt bit(s) no probe depended "
                "on (over-declaration forfeits plan sharing only):\n",
                R.Precision.size());
    for (const SaltPrecisionNote &N : R.Precision)
      std::printf("  %s / %s bit %d (%s)\n", N.Model.c_str(),
                  N.Axiom.c_str(), N.Bit, N.BitName.c_str());
  }

  std::printf(R.sound() ? "SOUND: every salt, memoization, invalidation, "
                          "and footprint contract held\n"
                        : "UNSOUND: %zu finding(s)\n",
              R.Findings.size());
}

} // namespace

int main(int Argc, char **Argv) {
  AuditOptions O;
  bool Json = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--model") == 0 && I + 1 < Argc) {
      if (!addModels(Argv[++I], O.ModelSpecs))
        return 2;
    } else if (std::strncmp(A, "--model=", 8) == 0) {
      if (!addModels(A + 8, O.ModelSpecs))
        return 2;
    } else if (std::strcmp(A, "--json") == 0) {
      Json = true;
    } else if (std::strcmp(A, "--events") == 0 && I + 1 < Argc) {
      O.Events = bench::parseEventsStrict(Argv[++I], "--events");
    } else if (std::strcmp(A, "--bases") == 0 && I + 1 < Argc) {
      O.VocabBaseCap = bench::parseCountStrict(Argv[++I], "--bases");
    } else if (std::strcmp(A, "--placements") == 0 && I + 1 < Argc) {
      O.PlacementCap = bench::parseCountStrict(Argv[++I], "--placements");
    } else if (std::strcmp(A, "--corpus-cap") == 0 && I + 1 < Argc) {
      O.CorpusCandidateCap =
          bench::parseCountStrict(Argv[++I], "--corpus-cap");
    } else if (std::strcmp(A, "--max-findings") == 0 && I + 1 < Argc) {
      O.MaxFindings = bench::parseCountStrict(Argv[++I], "--max-findings");
    } else if (std::strcmp(A, "--no-corpus") == 0) {
      O.Corpus = false;
    } else if (std::strcmp(A, "--no-vocab") == 0) {
      O.Vocabularies = false;
    } else if (std::strcmp(A, "--no-precision") == 0) {
      O.Precision = false;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", A);
      return 2;
    }
  }

  // Reject bad specs up front with the registry's diagnostic — every bad
  // spec, not just the first (mirrors litmus_tool).
  int BadSpecs = 0;
  for (const std::string &Spec : O.ModelSpecs) {
    std::string Error;
    if (!ModelRegistry::parse(Spec, &Error)) {
      std::fprintf(stderr, "error: --model %s: %s\n", Spec.c_str(),
                   Error.c_str());
      ++BadSpecs;
    }
  }
  if (BadSpecs)
    return 2;

  AuditReport R = auditContracts(O);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 2;
  }

  if (Json)
    std::fputs(auditReportToJson(R).c_str(), stdout);
  else
    printText(R);
  return R.sound() ? 0 : 1;
}
