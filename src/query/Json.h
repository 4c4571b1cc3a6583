//===- Json.h - Minimal JSON writing and parsing ----------------*- C++ -*-==//
///
/// \file
/// The small JSON layer behind the batch query API (query/QueryIO) and
/// the suite exports (synth/SuiteIO): an escape/append writer for the
/// serialisation side, and an order-preserving DOM (`JsonValue`) for the
/// parsing side. No external dependency — the repo's JSON needs are a few
/// fixed schemata, so ~200 lines of strict-enough JSON beat a library the
/// container may not have.
///
/// Writers emit fields in a *fixed order* and integers without exponent
/// notation, so a serialisation is byte-for-byte reproducible — the
/// property the batch determinism guarantee (same JSON for every --jobs
/// value) and the golden tests lean on.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_JSON_H
#define TMW_QUERY_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmw {

/// Append \p S to \p Out as a JSON string literal (quotes included),
/// escaping quotes, backslashes, and control characters.
void jsonAppendString(std::string &Out, std::string_view S);

/// Render \p S as a JSON string literal.
std::string jsonQuote(std::string_view S);

/// Append \p V to \p Out in plain decimal (a leading '-' when negative).
void jsonAppendUint(std::string &Out, uint64_t V);
void jsonAppendInt(std::string &Out, int64_t V);

/// A parsed JSON value. Object members preserve their source order.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  /// How a number token was captured. `strtod` alone rounds u64-range
  /// integers (anything above 2^53) to the nearest double, which would
  /// silently corrupt `candidate_cap` / count fields on a parse →
  /// serialise round trip — so plain integer tokens that fit 64 bits are
  /// *also* stored exactly, and the typed accessors below prefer the
  /// exact form.
  enum class NumForm : uint8_t {
    /// Not lexically a 64-bit integer (decimal point, exponent, or out of
    /// 64-bit range); only `Num` is meaningful.
    Double,
    /// A plain non-negative integer token that fits uint64_t: `U` is
    /// exact (`Num` is the nearest double, possibly lossy).
    Uint,
    /// A plain negative integer token that fits int64_t: `I` is exact.
    Int,
  };

  Kind K = Kind::Null;
  bool B = false;
  NumForm NF = NumForm::Double;
  double Num = 0;
  /// Exact integer payloads (see `NumForm`).
  uint64_t U = 0;
  int64_t I = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Members;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue *get(std::string_view Key) const;

  /// Typed member accessors with defaults — the tolerant-read style the
  /// IO layer uses (missing field = default, wrong type = default).
  /// `getUint`/`getInt` go through the integer-preserving token path:
  /// they return the *exact* source integer, and reject (return the
  /// default for) values that would be lossy — fractional numbers,
  /// exponent forms, integers outside the target range — instead of
  /// rounding them.
  bool getBool(std::string_view Key, bool Default = false) const;
  double getNumber(std::string_view Key, double Default = 0) const;
  uint64_t getUint(std::string_view Key, uint64_t Default = 0) const;
  int64_t getInt(std::string_view Key, int64_t Default = 0) const;
  std::string_view getString(std::string_view Key,
                             std::string_view Default = {}) const;

  /// This value as an exact integer (the accessor cores above): nullopt
  /// unless the value is a number whose source token was a plain integer
  /// in the target type's range.
  std::optional<uint64_t> asUint() const;
  std::optional<int64_t> asInt() const;
};

/// Parse \p Text as one JSON value (trailing whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when \p Error is
/// non-null, stores a message with the byte offset.
///
/// Duplicate object keys are a parse error. RFC 8259 leaves the choice
/// open (last-wins, first-wins, reject), but every document this repo
/// reads is one of its own fixed-order schemata whose writers cannot emit
/// a duplicate — so a duplicate key is always a malformed or adversarial
/// input, and rejecting it beats both silent-override semantics
/// (`get`/`getUint` return the *first* match, so last-wins reading would
/// disagree with the DOM order the members preserve).
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Error = nullptr);

} // namespace tmw

#endif // TMW_QUERY_JSON_H
