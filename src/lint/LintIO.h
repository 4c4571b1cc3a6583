//===- LintIO.h - Machine-readable lint reports -----------------*- C++ -*-==//
///
/// \file
/// The `tmw-lint-v1` wire document: one JSON object covering a batch of
/// linted programs, consumed by CI (the corpus-lints-clean gate uploads it
/// beside `contract_audit.json`). Fields render in a fixed order so equal
/// reports are byte-identical — the same canonical-form discipline as the
/// verdict and audit documents.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_LINT_LINTIO_H
#define TMW_LINT_LINTIO_H

#include "lint/Lint.h"

#include <span>
#include <string>
#include <string_view>

namespace tmw {

inline constexpr std::string_view kLintReportSchema = "tmw-lint-v1";

/// One linted program: its name, diagnostics, and static facts.
struct LintedProgram {
  std::string Name;
  LintReport Report;
  ProgramFacts Facts;
};

/// Parse \p Source and lint it as program \p Name. A source that fails to
/// parse is still one program, so reports never read clean for it: its
/// only finding is an error with code `parse-error` at the parse error's
/// line, and its facts are default-valued.
LintedProgram lintSource(std::string_view Source, std::string Name);

/// Render the whole batch as one `tmw-lint-v1` document (trailing
/// newline included). Field order is fixed.
std::string lintReportToJson(std::span<const LintedProgram> Programs);

/// Render one program's findings as human-readable diagnostic lines
/// ("name:line: severity: message [code]"), one per finding; empty when
/// the program is clean.
std::string lintFindingsToText(const LintedProgram &LP);

} // namespace tmw

#endif // TMW_LINT_LINTIO_H
