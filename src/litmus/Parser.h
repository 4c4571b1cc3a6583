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
/// Lines end at `\n`. Tokens are separated by runs of space, `\t`, `\n`,
/// `\v`, `\f` and `\r` (what `operator>>` skips in the C locale), and
/// a token that *starts* with `#` ends its line: `x#c` is a name, not a
/// name and a comment. Tokens are views of the text; only what the
/// program keeps (names) and diagnostics become strings.
///
/// Each location has at most one `loc` line (a second one for the same
/// name is an error at its line; `printDsl` emits exactly one per
/// location). Thread indices run from 0 to `kMaxEvents - 1`; a larger
/// index is an error at its line, since threads are stored densely up to
/// the highest index named. Every number is a decimal `int` spelling its
/// whole token: one optional sign (`+1`, `-0` and `007` parse; `+-1`
/// does not), a value inside `int`'s range (one outside is an error,
/// never a wrapped value), and nothing after the digits, a NUL byte
/// included (`1\0junk` is malformed, not 1).
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
