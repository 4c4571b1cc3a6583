//===- tmw_lint.cpp - Litmus-program lint CLI ----------------------------------==//
///
/// CLI frontend of the static litmus-program analyzer (lint/Lint.h): runs
/// every lint rule — unused/uninitialized locations, event and
/// transaction budget overflows, unbalanced or ill-nested txbegin/txend
/// and lock/unlock regions, mispaired RMW halves, postconditions naming
/// nonexistent loads or locations, dependency indices pointing at
/// non-loads — over litmus DSL files and/or the built-in corpus, and
/// reports the static program facts (txn-free, rmw-free, fence kinds,
/// vocabulary) the evaluation planner specializes on.
///
/// Usage:   ./tmw_lint [options] [file.litmus ...]
/// Example: ./tmw_lint --corpus --json > lint_report.json
///          ./tmw_lint sb.litmus mp.litmus
///
/// Flags:
///   --corpus   lint every test of the built-in corpus (litmus/Library.h).
///   --json     emit the canonical `tmw-lint-v1` report (lint/LintIO.h)
///              on stdout: fixed field order, nothing nondeterministic —
///              CI diffs it across runs like the audit and bench
///              artifacts.
///
/// A file that fails to parse is reported like any other program, with
/// one error finding (code `parse-error`) at the parse error's line, so
/// neither form reads clean for it; every other input is still linted.
///
/// Exit status: 0 when every program lints clean, 1 when any finding was
/// reported (warnings and parse errors included — the corpus gate wants
/// a clean corpus, not a quiet one), 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "lint/LintIO.h"
#include "litmus/Library.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace tmw;

int main(int Argc, char **Argv) {
  bool Corpus = false, Json = false;
  std::vector<const char *> Files;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--corpus") == 0) {
      Corpus = true;
    } else if (std::strcmp(A, "--json") == 0) {
      Json = true;
    } else if (std::strncmp(A, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", A);
      return 2;
    } else {
      Files.push_back(A);
    }
  }
  if (Files.empty() && !Corpus) {
    std::fprintf(stderr,
                 "usage: tmw_lint [--corpus] [--json] [file.litmus ...]\n");
    return 2;
  }

  std::vector<LintedProgram> Linted;
  for (const char *File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File);
      return 2;
    }
    std::stringstream Ss;
    Ss << In.rdbuf();
    Linted.push_back(lintSource(Ss.str(), File));
  }
  if (Corpus)
    for (const CorpusEntry &E : sharedCorpus())
      Linted.push_back({E.Name, lintProgram(E.Prog), computeFacts(E.Prog)});

  size_t Findings = 0;
  for (const LintedProgram &L : Linted)
    Findings += L.Report.Findings.size();

  if (Json) {
    std::fputs(lintReportToJson(Linted).c_str(), stdout);
  } else {
    for (const LintedProgram &L : Linted)
      std::fputs(lintFindingsToText(L).c_str(), stdout);
    std::printf("%zu program%s, %zu finding%s\n", Linted.size(),
                Linted.size() == 1 ? "" : "s", Findings,
                Findings == 1 ? "" : "s");
  }
  return Findings ? 1 : 0;
}
