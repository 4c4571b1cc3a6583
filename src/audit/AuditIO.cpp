//===- AuditIO.cpp - Machine-readable contract-audit reports -----------------==//

#include "audit/AuditIO.h"

#include "query/Json.h"

using namespace tmw;

namespace {

void appendFinding(std::string &Out, const AuditFinding &F) {
  Out += "{\"pass\": ";
  jsonAppendString(Out, auditPassName(F.Pass));
  Out += ", \"model\": ";
  jsonAppendString(Out, F.Model);
  Out += ", \"axiom\": ";
  jsonAppendString(Out, F.Axiom);
  if (F.Bit >= 0) {
    Out += ", \"bit\": ";
    jsonAppendUint(Out, static_cast<uint64_t>(F.Bit));
    Out += ", \"bit_name\": ";
    jsonAppendString(Out, F.BitName);
  }
  Out += ", \"probe\": ";
  jsonAppendString(Out, F.Probe);
  Out += ", \"detail\": ";
  jsonAppendString(Out, F.Detail);
  Out += ", \"witness\": ";
  jsonAppendString(Out, F.Witness);
  Out += '}';
}

void appendPrecision(std::string &Out, const SaltPrecisionNote &N) {
  Out += "{\"model\": ";
  jsonAppendString(Out, N.Model);
  Out += ", \"axiom\": ";
  jsonAppendString(Out, N.Axiom);
  Out += ", \"bit\": ";
  jsonAppendUint(Out, static_cast<uint64_t>(N.Bit < 0 ? 0 : N.Bit));
  Out += ", \"bit_name\": ";
  jsonAppendString(Out, N.BitName);
  Out += '}';
}

} // namespace

std::string tmw::auditReportToJson(const AuditReport &R) {
  std::string Out;
  Out += "{\"schema\": ";
  jsonAppendString(Out, kAuditReportSchema);
  Out += ", \"sound\": ";
  Out += R.sound() ? "true" : "false";
  if (!R.Error.empty()) {
    Out += ", \"error\": ";
    jsonAppendString(Out, R.Error);
  }
  Out += ", \"events\": ";
  jsonAppendUint(Out, R.Events);
  Out += ", \"specs\": [";
  bool First = true;
  for (const std::string &S : R.Specs) {
    if (!First)
      Out += ", ";
    First = false;
    jsonAppendString(Out, S);
  }
  Out += "], \"counters\": {\"probes\": ";
  jsonAppendUint(Out, R.Counters.Probes);
  Out += ", \"corpus_probes\": ";
  jsonAppendUint(Out, R.Counters.CorpusProbes);
  Out += ", \"vocab_probes\": ";
  jsonAppendUint(Out, R.Counters.VocabProbes);
  Out += ", \"bases\": ";
  jsonAppendUint(Out, R.Counters.Bases);
  Out += ", \"placements\": ";
  jsonAppendUint(Out, R.Counters.Placements);
  Out += ", \"units\": ";
  jsonAppendUint(Out, R.Counters.Units);
  Out += ", \"term_evals\": ";
  jsonAppendUint(Out, R.Counters.TermEvals);
  Out += ", \"footprint_checks\": ";
  jsonAppendUint(Out, R.Counters.FootprintChecks);
  Out += ", \"baseline_checks\": ";
  jsonAppendUint(Out, R.Counters.BaselineChecks);
  Out += "}, \"truncated\": ";
  Out += R.Truncated ? "true" : "false";
  Out += ", \"findings\": [";
  First = true;
  for (const AuditFinding &F : R.Findings) {
    if (!First)
      Out += ", ";
    First = false;
    appendFinding(Out, F);
  }
  Out += "], \"precision\": [";
  First = true;
  for (const SaltPrecisionNote &N : R.Precision) {
    if (!First)
      Out += ", ";
    First = false;
    appendPrecision(Out, N);
  }
  Out += "]}\n";
  return Out;
}
