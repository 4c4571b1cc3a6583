//===- litmus_tool.cpp - A herd/litmus-style batch query tool -------------------==//
///
/// The CLI frontend of the batch query engine (query/QueryEngine.h): reads
/// litmus tests in the DSL (files, the built-in corpus, or a demo test),
/// checks each against a list of registry model specs — enumerating each
/// program's candidates once and sharing them across all models — and
/// reports per-model verdicts, with optional per-axiom diagnostics and
/// machine-readable JSON output.
///
/// Usage:   ./litmus_tool [options] [file.litmus ...]
/// Example: ./litmus_tool --model power/-TxnOrder --explain sb.litmus
///          ./litmus_tool --corpus --json --jobs 4 > verdicts.json
///
/// Flags:
///   --model <spec>   check against this model instead of the default six.
///                    Repeatable, and <spec> may be a comma-separated
///                    list ("sc,tsc,x86"); repeated flags and list
///                    entries accumulate in order. Each spec follows the
///                    registry grammar (ModelRegistry.h): an architecture
///                    or hardware-substitute name optionally followed by
///                    "/"-separated ablation modifiers — "x86",
///                    "power/-TxnOrder", "cpp/+baseline", "power8",
///                    "armv8-rtl", "x86-impl". Parsing is strict: an
///                    unknown spec anywhere in any list exits 2 after
///                    diagnosing every bad spec (not just the first).
///   --corpus         add every test of the built-in litmus corpus
///                    (litmus/Library.h) to the batch.
///   --json           emit the canonical batch JSON (query/QueryIO.h) on
///                    stdout: byte-for-byte identical for every --jobs
///                    value. Implies --outcomes.
///   --explain        for each model that forbids some candidate, report
///                    the failed axioms of the first forbidden candidate
///                    and the witness events.
///   --outcomes       collect each model's allowed outcome set.
///   --jobs N         evaluate the batch on N work-stealing pool workers.
///   --cap N          stop each program's enumeration after N candidates.
///   --telemetry      append batch timing + per-worker load + plan
///                    accounting to the JSON (forfeits cross-jobs
///                    byte-determinism).
///   --eval <s>       candidate evaluation strategy: "planned" (default;
///                    one cross-spec evaluation plan per spec list,
///                    specialized to each program's static vocabulary
///                    facts) or "independent" (reference per-model
///                    loop). The canonical JSON is byte-identical either
///                    way — the flag exists so CI can prove it with cmp.
///   --store <path>   persistent verdict store (store/VerdictStore.h):
///                    answers whose exact content key (program source,
///                    canonical specs, options, engine version) is on
///                    disk skip enumeration; cold answers are appended +
///                    fsync'd for the next run. Byte-identical output
///                    either way. An unwritable path, corrupt header, or
///                    format-version mismatch is a usage error (exit 2) —
///                    never a silent cache-less run.
///
/// Exit status: 0 on success, 1 when any request failed (e.g. a DSL parse
/// error — reported as a one-line `file:line: message` diagnostic), 2 on
/// usage errors (unknown flag, unreadable file, bad --model spec).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "litmus/Library.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "store/VerdictStore.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace tmw;

namespace {

const char *DemoTest = R"(name SB+txn-demo
loc ok 1
thread 0
  txbegin
  store x 1
  txend
  load y
thread 1
  txbegin
  store y 1
  txend
  load x
post mem ok 1
post reg 0 r3 0
post reg 1 r3 0
)";

/// One-line compiler-style diagnostic for a failed response; parse errors
/// carry the source line (`file:line: message`).
std::string diagnosticOf(const CheckResponse &Resp,
                         const std::string &File) {
  if (Resp.ErrorLine > 0 && !File.empty())
    return File + ":" + std::to_string(Resp.ErrorLine) + ": " + Resp.Error;
  std::string Out = "error: ";
  if (!Resp.Name.empty())
    Out += Resp.Name + ": ";
  return Out + Resp.Error;
}

void printResponse(const CheckResponse &Resp, const std::string &File,
                   bool Explain) {
  if (!Resp) {
    std::fprintf(stderr, "%s\n", diagnosticOf(Resp, File).c_str());
    return;
  }

  std::printf("%s: %llu candidate executions%s\n", Resp.Name.c_str(),
              static_cast<unsigned long long>(Resp.Candidates),
              Resp.Truncated ? " (cap hit: verdicts cover a prefix)" : "");
  std::printf("  %-28s %9s %11s   postcondition\n", "model", "allowed",
              "candidates");
  for (const ModelVerdict &V : Resp.Verdicts)
    std::printf("  %-28s %9llu %11llu   %s\n", V.Spec.c_str(),
                static_cast<unsigned long long>(V.Consistent),
                static_cast<unsigned long long>(Resp.Candidates),
                V.Allowed ? "REACHABLE" : "unreachable");
  if (Explain)
    for (const ModelVerdict &V : Resp.Verdicts) {
      if (V.FirstForbidden < 0) {
        std::printf("  %s allows every candidate\n", V.Spec.c_str());
        continue;
      }
      std::printf("  %s forbids candidate #%lld:\n", V.Spec.c_str(),
                  static_cast<long long>(V.FirstForbidden));
      for (const FailedAxiomInfo &F : V.FailedAxioms) {
        std::printf("    axiom %-14s violated; witness events {",
                    F.Axiom.c_str());
        bool First = true;
        for (EventId E : F.Witness) {
          std::printf("%s%u", First ? "" : ", ", E);
          First = false;
        }
        std::printf("}\n");
      }
    }
  std::printf("\n");
}

/// Split one `--model` value on commas into \p Specs via the registry's
/// shared strict parser (ModelRegistry::splitSpecList — `tmw_audit` uses
/// the same one), diagnosing the rejected value.
bool splitModelList(const char *Value, std::vector<std::string> &Specs) {
  std::string Error;
  if (ModelRegistry::splitSpecList(Value, Specs, &Error)) {
    return true;
  }
  std::fprintf(stderr, "error: --model %s: %s\n", Value, Error.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> ModelSpecs;
  std::vector<const char *> Files;
  bool Corpus = false, Json = false, Explain = false, Outcomes = false;
  bool Telemetry = false;
  unsigned Jobs = 1;
  uint64_t Cap = 0;
  std::string StorePath;
  EvalStrategy Strategy = EvalStrategy::Planned;
  auto ParseEval = [&](const char *Value) {
    if (std::strcmp(Value, "planned") == 0) {
      Strategy = EvalStrategy::Planned;
      return true;
    }
    if (std::strcmp(Value, "independent") == 0) {
      Strategy = EvalStrategy::Independent;
      return true;
    }
    std::fprintf(stderr,
                 "error: --eval %s: expected 'planned' or 'independent'\n",
                 Value);
    return false;
  };

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--model") == 0 && I + 1 < Argc) {
      if (!splitModelList(Argv[++I], ModelSpecs))
        return 2;
    } else if (std::strncmp(A, "--model=", 8) == 0) {
      if (!splitModelList(A + 8, ModelSpecs))
        return 2;
    } else if (std::strcmp(A, "--eval") == 0 && I + 1 < Argc) {
      if (!ParseEval(Argv[++I]))
        return 2;
    } else if (std::strncmp(A, "--eval=", 7) == 0) {
      if (!ParseEval(A + 7))
        return 2;
    } else if (std::strcmp(A, "--corpus") == 0) {
      Corpus = true;
    } else if (std::strcmp(A, "--json") == 0) {
      Json = true;
    } else if (std::strcmp(A, "--explain") == 0) {
      Explain = true;
    } else if (std::strcmp(A, "--outcomes") == 0) {
      Outcomes = true;
    } else if (std::strcmp(A, "--telemetry") == 0) {
      Telemetry = true;
    } else if (std::strcmp(A, "--jobs") == 0 && I + 1 < Argc) {
      Jobs = bench::parseJobsStrict(Argv[++I], "--jobs");
    } else if (std::strncmp(A, "--jobs=", 7) == 0) {
      Jobs = bench::parseJobsStrict(A + 7, "--jobs");
    } else if (std::strcmp(A, "--cap") == 0 && I + 1 < Argc) {
      Cap = bench::parseCountStrict(Argv[++I], "--cap");
    } else if (std::strncmp(A, "--cap=", 6) == 0) {
      Cap = bench::parseCountStrict(A + 6, "--cap");
    } else if (std::strcmp(A, "--store") == 0 && I + 1 < Argc) {
      StorePath = Argv[++I];
    } else if (std::strncmp(A, "--store=", 8) == 0) {
      StorePath = A + 8;
    } else if (std::strncmp(A, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", A);
      return 2;
    } else {
      Files.push_back(A);
    }
  }

  // Robustness: reject bad model specs before doing any work, with the
  // registry's one-line diagnostic (names the offending token and the
  // alternatives). Every bad spec is diagnosed — a long comma-separated
  // list with two typos gets both named in one run, not one per rerun.
  int BadSpecs = 0;
  for (const std::string &Spec : ModelSpecs) {
    std::string Error;
    if (!ModelRegistry::parse(Spec, &Error)) {
      std::fprintf(stderr, "error: --model %s: %s\n", Spec.c_str(),
                   Error.c_str());
      ++BadSpecs;
    }
  }
  if (BadSpecs)
    return 2;

  // Assemble the batch: one request per file, plus the corpus, plus the
  // demo when nothing else was given. FileOf tracks provenance for
  // diagnostics.
  std::vector<CheckRequest> Requests;
  std::vector<std::string> FileOf;
  auto Add = [&](CheckRequest R, std::string File) {
    R.ModelSpecs = ModelSpecs;
    R.Explain = Explain;
    R.WantOutcomes = Outcomes || Json;
    R.CandidateCap = Cap;
    Requests.push_back(std::move(R));
    FileOf.push_back(std::move(File));
  };
  for (const char *File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File);
      return 2;
    }
    std::stringstream Ss;
    Ss << In.rdbuf();
    CheckRequest R;
    R.Source = Ss.str();
    // Unparseable input is NOT fail-fast: the request joins the batch and
    // the engine reports its error, so a bad file in the middle of a
    // multi-file batch still gets every other file checked, every failing
    // file its own `file:line:` diagnostic, and the exit stays nonzero
    // however late in the batch the failure sits.
    Add(std::move(R), File);
  }
  if (Corpus)
    for (const CorpusEntry &E : sharedCorpus()) {
      CheckRequest R;
      R.Corpus = E.Name;
      Add(std::move(R), "");
    }
  if (Requests.empty()) {
    if (!Json)
      std::printf("(no input files: running the built-in demo test)\n\n");
    CheckRequest R;
    R.Source = DemoTest;
    Add(std::move(R), "");
  }

  // Strict --store diagnostics: a store that cannot be opened (unwritable
  // path, corrupt header, format-version mismatch) is a usage error, not
  // a silent fall-through to cache-less evaluation.
  std::unique_ptr<VerdictStore> Store;
  if (!StorePath.empty()) {
    std::string Error;
    Store = VerdictStore::open(StorePath, &Error);
    if (!Store) {
      std::fprintf(stderr, "error: --store %s: %s\n", StorePath.c_str(),
                   Error.c_str());
      return 2;
    }
  }

  QueryEngine Engine(
      {.Jobs = Jobs, .Strategy = Strategy, .Store = Store.get()});
  int Failed = 0;

  if (Json) {
    BatchTelemetry T;
    std::vector<CheckResponse> Responses = Engine.runAll(Requests, &T);
    for (size_t I = 0; I < Responses.size(); ++I)
      if (!Responses[I]) {
        ++Failed;
        // Mirror the diagnostic on stderr so a nonzero exit explains
        // itself even when stdout is redirected to a file.
        std::fprintf(stderr, "%s\n",
                     diagnosticOf(Responses[I], FileOf[I]).c_str());
      }
    std::fputs(
        responsesToJson(Responses, Telemetry ? &T : nullptr).c_str(),
        stdout);
  } else {
    // Stream: responses print as they complete, in request order.
    size_t Index = 0;
    BatchTelemetry T = Engine.run(Requests, [&](const CheckResponse &Resp) {
      if (!Resp)
        ++Failed;
      printResponse(Resp, FileOf[Index], Explain);
      ++Index;
    });
    if (Requests.size() > 1 || Jobs > 1)
      std::printf("batch: %llu programs, %llu candidates, %llu checks in "
                  "%.2fs on %zu worker%s\n",
                  static_cast<unsigned long long>(T.Programs),
                  static_cast<unsigned long long>(T.Candidates),
                  static_cast<unsigned long long>(T.Checks), T.Seconds,
                  T.Workers.size(), T.Workers.size() == 1 ? "" : "s");
  }
  return Failed ? 1 : 0;
}
