//===- LintIO.cpp - Machine-readable lint reports -------------------------------==//

#include "lint/LintIO.h"

#include "litmus/Parser.h"
#include "query/Json.h"

using namespace tmw;

namespace {

void appendBool(std::string &Out, bool B) { Out += B ? "true" : "false"; }

void appendFinding(std::string &Out, const LintFinding &F) {
  Out += "{\"severity\": ";
  jsonAppendString(Out, lintSeverityName(F.Severity));
  Out += ", \"code\": ";
  jsonAppendString(Out, F.Code);
  Out += ", \"message\": ";
  jsonAppendString(Out, F.Message);
  Out += ", \"thread\": ";
  jsonAppendInt(Out, F.Thread);
  Out += ", \"instruction\": ";
  jsonAppendInt(Out, F.Instruction);
  Out += ", \"line\": ";
  jsonAppendUint(Out, F.Line);
  Out += '}';
}

void appendFacts(std::string &Out, const ProgramFacts &F) {
  Out += "{\"txn_free\": ";
  appendBool(Out, F.TxnFree);
  Out += ", \"rmw_free\": ";
  appendBool(Out, F.RmwFree);
  Out += ", \"lock_region_free\": ";
  appendBool(Out, F.LockRegionFree);
  Out += ", \"single_location\": ";
  appendBool(Out, F.SingleLocation);
  Out += ", \"atomic_only\": ";
  appendBool(Out, F.AtomicOnly);
  Out += ", \"fence_kinds\": [";
  bool First = true;
  for (unsigned K = 1; K <= static_cast<unsigned>(FenceKind::CppFence);
       ++K) {
    if (!(F.FenceKinds & (1u << K)))
      continue;
    if (!First)
      Out += ", ";
    First = false;
    jsonAppendString(Out, fenceKindName(static_cast<FenceKind>(K)));
  }
  Out += "], \"vocabulary\": ";
  jsonAppendUint(Out, F.Vocabulary);
  Out += '}';
}

} // namespace

LintedProgram tmw::lintSource(std::string_view Source, std::string Name) {
  LintedProgram L;
  L.Name = std::move(Name);
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed) {
    L.Report.Findings.push_back({LintSeverity::Error, "parse-error",
                                 std::move(Parsed.Error), -1, -1,
                                 Parsed.ErrorLine});
    return L;
  }
  L.Report = lintProgram(Parsed.Prog);
  L.Facts = computeFacts(Parsed.Prog);
  return L;
}

std::string tmw::lintReportToJson(std::span<const LintedProgram> Programs) {
  uint64_t Errors = 0, Warnings = 0;
  std::string Out;
  Out += "{\"schema\": ";
  jsonAppendString(Out, kLintReportSchema);
  Out += ", \"programs\": [";
  bool FirstProg = true;
  for (const LintedProgram &LP : Programs) {
    uint64_t ProgErrors = 0, ProgWarnings = 0;
    for (const LintFinding &F : LP.Report.Findings)
      (F.Severity == LintSeverity::Error ? ProgErrors : ProgWarnings) += 1;
    Errors += ProgErrors;
    Warnings += ProgWarnings;
    if (!FirstProg)
      Out += ", ";
    FirstProg = false;
    Out += "{\"name\": ";
    jsonAppendString(Out, LP.Name);
    Out += ", \"errors\": ";
    jsonAppendUint(Out, ProgErrors);
    Out += ", \"warnings\": ";
    jsonAppendUint(Out, ProgWarnings);
    Out += ", \"facts\": ";
    appendFacts(Out, LP.Facts);
    Out += ", \"findings\": [";
    bool First = true;
    for (const LintFinding &F : LP.Report.Findings) {
      if (!First)
        Out += ", ";
      First = false;
      appendFinding(Out, F);
    }
    Out += "]}";
  }
  Out += "], \"errors\": ";
  jsonAppendUint(Out, Errors);
  Out += ", \"warnings\": ";
  jsonAppendUint(Out, Warnings);
  Out += ", \"clean\": ";
  appendBool(Out, Errors == 0 && Warnings == 0);
  Out += "}\n";
  return Out;
}

std::string tmw::lintFindingsToText(const LintedProgram &LP) {
  std::string Out;
  for (const LintFinding &F : LP.Report.Findings) {
    Out += LP.Name;
    Out += ':';
    Out += std::to_string(F.Line);
    Out += ": ";
    Out += lintSeverityName(F.Severity);
    Out += ": ";
    Out += F.Message;
    Out += " [";
    Out += F.Code;
    Out += "]\n";
  }
  return Out;
}
