//===- Json.cpp - Minimal JSON writing and parsing -----------------------------==//

#include "query/Json.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace tmw;

void tmw::jsonAppendString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string tmw::jsonQuote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  jsonAppendString(Out, S);
  return Out;
}

void tmw::jsonAppendUint(std::string &Out, uint64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

void tmw::jsonAppendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

const JsonValue *JsonValue::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Members)
    if (Name == Key)
      return &V;
  return nullptr;
}

bool JsonValue::getBool(std::string_view Key, bool Default) const {
  const JsonValue *V = get(Key);
  return V && V->isBool() ? V->B : Default;
}

double JsonValue::getNumber(std::string_view Key, double Default) const {
  const JsonValue *V = get(Key);
  return V && V->isNumber() ? V->Num : Default;
}

std::optional<uint64_t> JsonValue::asUint() const {
  if (K != Kind::Number)
    return std::nullopt;
  if (NF == NumForm::Uint)
    return U;
  if (NF == NumForm::Int && I >= 0)
    return static_cast<uint64_t>(I);
  // Double form (fraction, exponent, or 64-bit overflow): rejecting beats
  // returning a silently rounded value.
  return std::nullopt;
}

std::optional<int64_t> JsonValue::asInt() const {
  if (K != Kind::Number)
    return std::nullopt;
  if (NF == NumForm::Int)
    return I;
  if (NF == NumForm::Uint && U <= static_cast<uint64_t>(INT64_MAX))
    return static_cast<int64_t>(U);
  return std::nullopt;
}

uint64_t JsonValue::getUint(std::string_view Key, uint64_t Default) const {
  const JsonValue *V = get(Key);
  if (!V)
    return Default;
  return V->asUint().value_or(Default);
}

int64_t JsonValue::getInt(std::string_view Key, int64_t Default) const {
  const JsonValue *V = get(Key);
  if (!V)
    return Default;
  return V->asInt().value_or(Default);
}

std::string_view JsonValue::getString(std::string_view Key,
                                      std::string_view Default) const {
  const JsonValue *V = get(Key);
  return V && V->isString() ? std::string_view(V->Str) : Default;
}

namespace {

/// Recursive-descent parser over a string view; `Pos` is the cursor.
/// Nesting is capped so adversarial input ("[[[[...") returns a parse
/// error instead of overflowing the stack — these entry points see
/// externally supplied batch files.
constexpr unsigned kMaxDepth = 96;

struct Parser {
  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Error;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("bad literal");
    Pos += Word.size();
    return true;
  }

  /// Read four hex digits into \p Code.
  bool hex4(unsigned &Code) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Code = 0;
    for (int I = 0; I < 4; ++I) {
      char H = Text[Pos++];
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code += static_cast<unsigned>(H - '0');
      else if (H >= 'a' && H <= 'f')
        Code += static_cast<unsigned>(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Code += static_cast<unsigned>(H - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code))
          return false;
        // Surrogate pairs: a high half must be followed by an escaped
        // low half (standard JSON emitters split non-BMP characters this
        // way); anything unpaired is rejected rather than decoded into
        // invalid UTF-8.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (Pos + 2 > Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          unsigned Low = 0;
          if (!hex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("unpaired surrogate");
          Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else if (Code < 0x10000) {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xF0 | (Code >> 18));
          Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(JsonValue &Out) {
    if (++Depth > kMaxDepth)
      return fail("nesting too deep");
    bool Ok = parseValueInner(Out);
    --Depth;
    return Ok;
  }

  bool parseValueInner(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = JsonValue::Kind::Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        std::string Key;
        if (!parseString(Key) || !consume(':'))
          return false;
        // Duplicate keys are rejected (see Json.h): our writers cannot
        // produce them, and accepting one would make `get` (first match)
        // disagree with any last-wins reader of the same document.
        for (const auto &[Name, Existing] : Out.Members)
          if (Name == Key)
            return fail("duplicate object key \"" + Key + "\"");
        JsonValue V;
        if (!parseValue(V))
          return false;
        Out.Members.emplace_back(std::move(Key), std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          skipWs();
          continue;
        }
        return consume('}');
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = JsonValue::Kind::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        JsonValue V;
        if (!parseValue(V))
          return false;
        Out.Arr.push_back(std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        return consume(']');
      }
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      Out.K = JsonValue::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = JsonValue::Kind::Bool;
      Out.B = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    }
    // Number: scan the token within bounds (the view need not be
    // NUL-terminated), then convert the bounded copy.
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    std::string Token(Text.substr(Pos, End - Pos));
    char *Parsed = nullptr;
    double V = std::strtod(Token.c_str(), &Parsed);
    if (Token.empty() || *Parsed != '\0' || !std::isfinite(V))
      return fail("bad number");
    Pos = End;
    Out.K = JsonValue::Kind::Number;
    Out.Num = V;
    // Integer-preserving path: a plain integer token (optional sign,
    // digits only — no fraction or exponent) that fits 64 bits is kept
    // exactly, because the double above rounds past 2^53 and the u64
    // count/cap fields of the wire form live in that range.
    size_t DigitsFrom = Token[0] == '-' ? 1 : 0;
    bool PlainInt = Token.size() > DigitsFrom;
    for (size_t D = DigitsFrom; D < Token.size(); ++D)
      if (!std::isdigit(static_cast<unsigned char>(Token[D])))
        PlainInt = false;
    if (PlainInt) {
      const char *First = Token.data(), *Last = Token.data() + Token.size();
      if (Token[0] == '-') {
        int64_t I = 0;
        if (auto [P, Ec] = std::from_chars(First, Last, I);
            Ec == std::errc() && P == Last) {
          Out.NF = JsonValue::NumForm::Int;
          Out.I = I;
        }
      } else {
        uint64_t U = 0;
        if (auto [P, Ec] = std::from_chars(First, Last, U);
            Ec == std::errc() && P == Last) {
          Out.NF = JsonValue::NumForm::Uint;
          Out.U = U;
        }
      }
    }
    return true;
  }
};

} // namespace

std::optional<JsonValue> tmw::parseJson(std::string_view Text,
                                        std::string *Error) {
  Parser P{Text, 0, 0, {}};
  JsonValue V;
  if (!P.parseValue(V)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing garbage at offset " + std::to_string(P.Pos);
    return std::nullopt;
  }
  if (Error)
    Error->clear();
  return V;
}
