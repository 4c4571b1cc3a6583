//===- Parser.h - Parsing the litmus DSL ------------------------*- C++ -*-==//
///
/// \file
/// Parses the line-oriented litmus DSL emitted by `printDsl`:
///
/// \code
///   name SB+txn
///   loc x 0
///   thread 0
///     store x 1
///     load y na
///   thread 1
///     txbegin
///     store y 1
///     txend
///   post reg 0 r1 0
///   post mem x 1
/// \endcode
///
/// Each location has at most one `loc` line (a second one for the same
/// name is an error at its line; `printDsl` emits exactly one per
/// location). Thread indices run from 0 to `kMaxEvents - 1`; a larger
/// index is an error at its line, since threads are stored densely up to
/// the highest index named. Every number is a decimal `int`: one outside
/// `int`'s range is an error, never a wrapped value.
///
/// Parsing never aborts the process: errors are reported through the
/// result's `Error` field.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_LITMUS_PARSER_H
#define TMW_LITMUS_PARSER_H

#include "litmus/Program.h"

#include <string>
#include <string_view>

namespace tmw {

/// Result of parsing: the program, or a diagnostic.
struct ParseResult {
  Program Prog;
  /// Empty when parsing succeeded; otherwise the bare message (no
  /// position prefix — see `ErrorLine` / `diagnostic()`).
  std::string Error;
  /// 1-based line of the error, 0 when parsing succeeded (or the input
  /// ended unexpectedly).
  unsigned ErrorLine = 0;

  explicit operator bool() const { return Error.empty(); }

  /// One-line compiler-style diagnostic: `file:line: message` (or
  /// `line N: message` when \p File is empty) — what `litmus_tool` prints
  /// before exiting nonzero.
  std::string diagnostic(std::string_view File = {}) const;
};

/// Parse \p Text in the DSL of `printDsl`. Takes a view: callers (the
/// query server's session cache in particular) can parse straight out of
/// wire buffers; the result owns all of its storage, so it stays valid
/// after the viewed text is gone (cache-safe program ownership).
ParseResult parseProgram(std::string_view Text);

} // namespace tmw

#endif // TMW_LITMUS_PARSER_H
