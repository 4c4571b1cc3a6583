//===- parser_error_test.cpp - Litmus DSL parser error paths ------------------==//
///
/// Every distinct diagnostic of `parseProgram` (litmus/Parser.cpp), each
/// pinned with its exact message and 1-based error line — so a reworded
/// or re-homed diagnostic is a deliberate test edit, not drift — plus a
/// fuzz-ish sweep of truncated and garbled programs that must fail
/// cleanly (no crash, a nonzero `ErrorLine`, a non-empty message) or
/// parse to a program the lint pass can still walk, and a differential
/// oracle: the in-place parser against the stream-based parser it
/// replaced, over systematic mutations of every corpus program.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "relation/EventSet.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace tmw;

namespace {

using namespace std::string_view_literals;

/// Assert \p Src fails to parse with exactly \p Message at \p Line.
void expectError(std::string_view Src, std::string_view Message,
                 unsigned Line) {
  ParseResult R = parseProgram(Src);
  ASSERT_FALSE(static_cast<bool>(R)) << "expected failure: " << Src;
  EXPECT_EQ(R.Error, Message) << Src;
  EXPECT_EQ(R.ErrorLine, Line) << Src;
}

// ---------------------------------------------------------------------------
// One pin per diagnostic, in Parser.cpp order.
// ---------------------------------------------------------------------------

TEST(ParserError_, NameRequiresAnArgument) {
  expectError("loc x 0\nname\n", "name requires an argument", 2);
}

TEST(ParserError_, LocRequiresNameAndInitial) {
  expectError("loc x\n", "loc requires a name and an initial value", 1);
}

TEST(ParserError_, BadInitialValue) {
  expectError("loc x zero\n", "bad initial value", 1);
  // Numbers outside `int` are refused, not wrapped.
  expectError("loc x 4294967297\n", "bad initial value", 1);
}

TEST(ParserError_, LocationDeclaredTwice) {
  // A second `loc` cannot take effect (the first value would win
  // silently), so it is refused at its line.
  expectError("loc x 1\nthread 0\n  load x\nloc x 2\n",
              "location 'x' already declared at line 1", 4);
  expectError("loc x 0\nloc y 0\nloc x 0\n",
              "location 'x' already declared at line 1", 3);
  // A location first named by an instruction may still be declared once.
  ParseResult Late = parseProgram("thread 0\n  load x\nloc x 3\n");
  ASSERT_TRUE(static_cast<bool>(Late)) << Late.Error;
  EXPECT_EQ(Late.Prog.initialValue(0), 3);
}

TEST(ParserError_, BadThreadIndex) {
  expectError("thread\n", "bad thread index", 1);
  expectError("thread one\n", "bad thread index", 1);
  expectError("thread -1\n", "bad thread index", 1);
  // 2^32 must not wrap to thread 0.
  expectError("thread 4294967296\n  store x 1\n", "bad thread index", 1);
}

TEST(ParserError_, ThreadIndexOutOfRange) {
  // Threads are stored densely up to the highest index named, so an
  // unchecked index is an unchecked allocation (2000000000 asks for tens
  // of GB; CI's hostile-input smoke sends that one under a memory
  // limit). Every index from kMaxEvents on is refused at its line; the
  // largest legal one still parses.
  expectError("name HugeThread\nthread 64\n  store x 1\n",
              "thread index 64 out of range (0..63)", 2);
  expectError("thread 0\n  load x\nthread 1000000\n  store x 1\n",
              "thread index 1000000 out of range (0..63)", 3);
  ParseResult Last = parseProgram("thread 63\n  store x 1\n");
  ASSERT_TRUE(static_cast<bool>(Last)) << Last.Error;
  EXPECT_EQ(Last.Prog.Threads.size(), 64u);
}

TEST(ParserError_, IncompletePostcondition) {
  expectError("loc x 0\nthread 0\n  load x\npost\n",
              "incomplete postcondition", 4);
}

TEST(ParserError_, PostRegRequiresThreadRegisterValue) {
  expectError("post reg\n", "post reg requires: thread, register, value", 1);
  expectError("post reg zero r0 1\n",
              "post reg requires: thread, register, value", 1);
}

TEST(ParserError_, BadPostRegOperands) {
  expectError("post reg 0 rX 1\n", "bad post reg operands", 1);
  expectError("post reg 0 r0 one\n", "bad post reg operands", 1);
}

TEST(ParserError_, NegativePostRegOperands) {
  // Thread and register are indices: -1 must not reach lint as thread
  // 4294967295, nor r-2 as register 4294967294.
  expectError("thread 0\n  load x\npost reg -1 r0 1\n",
              "post reg thread -1 is negative", 3);
  expectError("thread 0\n  load x\npost reg 0 r-2 1\n",
              "post reg register r-2 is negative", 3);
  expectError("thread 0\n  load x\npost reg 0 -2 1\n",
              "post reg register -2 is negative", 3);
  // A negative value is a value, not an index.
  ParseResult Value = parseProgram("thread 0\n  load x\npost reg 0 r0 -1\n");
  ASSERT_TRUE(static_cast<bool>(Value)) << Value.Error;
  EXPECT_EQ(Value.Prog.RegPost.at(0).Value, -1);
}

TEST(ParserError_, PostMemRequiresLocationValue) {
  expectError("post mem x\n", "post mem requires: location, value", 1);
  expectError("post mem x one\n", "post mem requires: location, value", 1);
}

TEST(ParserError_, UnknownPostconditionKind) {
  expectError("post cpu 0 r0 1\n", "unknown postcondition kind: cpu", 1);
}

TEST(ParserError_, InstructionOutsideAnyThread) {
  expectError("loc x 0\nload x\n", "instruction outside any thread", 2);
}

TEST(ParserError_, LoadRequiresLocation) {
  expectError("thread 0\n  load\n", "load requires a location", 2);
}

TEST(ParserError_, StoreRequiresLocationAndValue) {
  expectError("thread 0\n  store x\n",
              "store requires a location and a value", 2);
  expectError("thread 0\n  store x one\n",
              "store requires a location and a value", 2);
  expectError("thread 0\n  store x 4294967297\n",
              "store requires a location and a value", 2);
}

TEST(ParserError_, FenceRequiresFlavour) {
  expectError("thread 0\n  fence\n", "fence requires a flavour", 2);
}

TEST(ParserError_, UnknownFenceFlavour) {
  expectError("thread 0\n  fence warp\n", "unknown fence flavour: warp", 2);
}

TEST(ParserError_, UnknownInstruction) {
  expectError("thread 0\n  cmpxchg x 1\n", "unknown instruction: cmpxchg", 2);
}

TEST(ParserError_, BadDependencyReference) {
  expectError("thread 0\n  load x addr:rQ\n",
              "bad dependency reference: addr:rQ", 2);
  expectError("thread 0\n  load x rmw:-2\n",
              "bad dependency reference: rmw:-2", 2);
  expectError("thread 0\n  load x addr:r4294967296\n",
              "bad dependency reference: addr:r4294967296", 2);
}

TEST(ParserError_, UnknownAttribute) {
  expectError("thread 0\n  load x flub:r0\n", "unknown attribute: flub:r0", 2);
}

TEST(ParserError_, NulInNumberIsMalformed) {
  // A JSON `\u0000` puts a NUL byte in a source. A number is its whole
  // token, so `1\0junk` is malformed, not 1, in every numeric field.
  expectError("thread 0\n  store x 1\0junk\npost mem x 1\n"sv,
              "store requires a location and a value", 2);
  expectError("thread 0\0" "7\n  store x 1\n"sv, "bad thread index", 1);
  expectError("loc x 1\0\n"sv, "bad initial value", 1);
  expectError("thread 0\n  load x\n  load y addr:r0\0\n"sv,
              "bad dependency reference: addr:r0\0"sv, 3);
  expectError("thread 0\n  load x rmw:1\0" "2\n  load x\n"sv,
              "bad dependency reference: rmw:1\0" "2"sv, 2);
  expectError("thread 0\n  load x\npost reg 0\0 r0 1\n"sv,
              "post reg requires: thread, register, value", 3);
  expectError("thread 0\n  load x\npost reg 0 r0\0 1\n"sv,
              "bad post reg operands", 3);
  expectError("thread 0\n  load x\npost reg 0 r0 1\0\n"sv,
              "bad post reg operands", 3);
  expectError("thread 0\n  store x 1\npost mem x 1\0\n"sv,
              "post mem requires: location, value", 3);
}

// ---------------------------------------------------------------------------
// Behavioural corners of the error machinery itself.
// ---------------------------------------------------------------------------

TEST(ParserError_, DiagnosticFormatsFileAndLine) {
  ParseResult R = parseProgram("loc x\n");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.diagnostic("sb.litmus"),
            "sb.litmus:1: loc requires a name and an initial value");
  EXPECT_EQ(R.diagnostic(""),
            "line 1: loc requires a name and an initial value");
  EXPECT_EQ(parseProgram("thread 0\n  load x\n").diagnostic("f"), "");
}

TEST(ParserError_, CommentsAndBlankLinesDoNotShiftErrorLines) {
  expectError("# header comment\n"
              "\n"
              "loc x 0\n"
              "thread 0\n"
              "  load x  # trailing comment\n"
              "  fence warp\n",
              "unknown fence flavour: warp", 6);
}

// ---------------------------------------------------------------------------
// Fuzz-ish sweep: truncations and mutations of a real program. Nothing
// here may crash; failures must carry a line and a message.
// ---------------------------------------------------------------------------

const char *kSeed = "name MP+txn\n"
                    "loc x 0\n"
                    "loc y 0\n"
                    "thread 0\n"
                    "  txbegin atomic\n"
                    "  store x 1 rel\n"
                    "  store y 1\n"
                    "  txend\n"
                    "thread 1\n"
                    "  load y acq\n"
                    "  load x addr:r0 ctrl:0\n"
                    "post reg 1 r0 1\n"
                    "post reg 1 r1 1\n"
                    "post mem x 1\n";

TEST(ParserError_, EveryPrefixParsesOrFailsCleanly) {
  std::string Seed(kSeed);
  for (size_t Cut = 0; Cut <= Seed.size(); ++Cut) {
    ParseResult R = parseProgram(Seed.substr(0, Cut));
    if (!R) {
      EXPECT_GT(R.ErrorLine, 0u) << "cut at " << Cut;
      EXPECT_FALSE(R.Error.empty()) << "cut at " << Cut;
    } else {
      // Whatever parsed must be walkable by the analyzer without
      // asserting — truncation can legally strand a txbegin, which is
      // exactly what the lint rules exist to report.
      lintProgram(R.Prog);
      computeFacts(R.Prog);
    }
  }
}

TEST(ParserError_, SingleByteMutationsNeverCrash) {
  std::string Seed(kSeed);
  const char Garble[] = {'\0', '\t', '#', '{', '9', 'z', '-', ':'};
  for (size_t Pos = 0; Pos < Seed.size(); Pos += 3) {
    for (char C : Garble) {
      std::string Mutant = Seed;
      Mutant[Pos] = C;
      ParseResult R = parseProgram(Mutant);
      if (!R) {
        EXPECT_GT(R.ErrorLine, 0u) << "mutation at " << Pos;
        EXPECT_FALSE(R.Error.empty()) << "mutation at " << Pos;
      } else {
        lintProgram(R.Prog);
        computeFacts(R.Prog);
      }
    }
  }
}

TEST(ParserError_, GarbledLinesFailWithThatLinePinned) {
  // The reported line must be the offending one even deep in a file.
  std::string Long;
  for (int I = 0; I < 40; ++I)
    Long += "loc v" + std::to_string(I) + " 0\n";
  Long += "thread 0\n  load v0\n  store v1 not-a-number\n";
  ParseResult R = parseProgram(Long);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ErrorLine, 43u);
  EXPECT_EQ(R.Error, "store requires a location and a value");
}

// ---------------------------------------------------------------------------
// Differential oracle: the parser `parseProgram` replaced, kept verbatim
// (an `istringstream` per line, a string per token, `strtol` in
// `parseInt`) but for one change: `parseInt` requires the whole token, so
// a NUL byte no longer ends a number early.
// ---------------------------------------------------------------------------

namespace reference {

std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Toks;
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok) {
    if (Tok[0] == '#')
      break;
    Toks.push_back(Tok);
  }
  return Toks;
}

/// Parse a decimal `int`. A value outside `int` is an error, not a
/// wrapped value (`thread 4294967296` must not read as thread 0).
bool parseInt(const std::string &S, int &Out) {
  char *End = nullptr;
  long V = strtol(S.c_str(), &End, 10);
  if (End == S.c_str() || End != S.c_str() + S.size() || V < INT_MIN ||
      V > INT_MAX)
    return false;
  Out = static_cast<int>(V);
  return true;
}

MemOrder parseOrder(const std::string &S, bool &Ok) {
  Ok = true;
  if (S == "na")
    return MemOrder::NonAtomic;
  if (S == "rlx")
    return MemOrder::Relaxed;
  if (S == "acq")
    return MemOrder::Acquire;
  if (S == "rel")
    return MemOrder::Release;
  if (S == "acqrel")
    return MemOrder::AcqRel;
  if (S == "sc")
    return MemOrder::SeqCst;
  Ok = false;
  return MemOrder::NonAtomic;
}

FenceKind parseFence(const std::string &S, bool &Ok) {
  Ok = true;
  if (S == "mfence")
    return FenceKind::MFence;
  if (S == "sync")
    return FenceKind::Sync;
  if (S == "lwsync")
    return FenceKind::LwSync;
  if (S == "isync")
    return FenceKind::ISync;
  if (S == "dmb")
    return FenceKind::Dmb;
  if (S == "dmb.ld")
    return FenceKind::DmbLd;
  if (S == "dmb.st")
    return FenceKind::DmbSt;
  if (S == "isb")
    return FenceKind::Isb;
  if (S == "fence")
    return FenceKind::CppFence;
  Ok = false;
  return FenceKind::None;
}

/// Parse trailing attributes (excl, addr:rN, data:rN, ctrl:rN, rmw:N).
bool parseAttrs(const std::vector<std::string> &Toks, size_t From,
                Instruction &I, std::string &Err) {
  for (size_t T = From; T < Toks.size(); ++T) {
    const std::string &A = Toks[T];
    if (A == "excl") {
      I.Exclusive = true;
      continue;
    }
    auto ParseRef = [&](const char *Prefix,
                        std::vector<unsigned> *Deps) -> bool {
      size_t Len = strlen(Prefix);
      if (A.compare(0, Len, Prefix) != 0)
        return false;
      int V;
      std::string Rest = A.substr(Len);
      if (!Rest.empty() && Rest[0] == 'r')
        Rest = Rest.substr(1);
      if (!parseInt(Rest, V) || V < 0) {
        Err = "bad dependency reference: " + A;
        return true;
      }
      if (Deps)
        Deps->push_back(static_cast<unsigned>(V));
      else
        I.RmwPartner = V;
      return true;
    };
    if (ParseRef("addr:", &I.AddrDeps) || ParseRef("data:", &I.DataDeps) ||
        ParseRef("ctrl:", &I.CtrlDeps) || ParseRef("rmw:", nullptr)) {
      if (!Err.empty())
        return false;
      continue;
    }
    Err = "unknown attribute: " + A;
    return false;
  }
  return true;
}

ParseResult parseProgram(std::string_view Text) {
  ParseResult Res;
  Program &P = Res.Prog;
  int CurThread = -1;
  unsigned LineNo = 0;
  // Line of each location's `loc` declaration (0: not declared), by LocId.
  std::vector<unsigned> LocLines;

  std::string Line;
  // Every caller returns the result at once, so it is moved out, not
  // copied with the partial program.
  auto Fail = [&](std::string Msg) {
    Res.Error = std::move(Msg);
    Res.ErrorLine = LineNo;
    return std::move(Res);
  };

  // Walk the lines of the view directly (no stream, no input copy): the
  // long-lived server parses sources straight out of wire buffers, and a
  // view keeps the parse allocation-proportional to one line.
  for (size_t Cursor = 0; Cursor < Text.size();) {
    size_t Nl = Text.find('\n', Cursor);
    if (Nl == std::string_view::npos) {
      Line.assign(Text.substr(Cursor));
      Cursor = Text.size();
    } else {
      Line.assign(Text.substr(Cursor, Nl - Cursor));
      Cursor = Nl + 1;
    }
    ++LineNo;
    std::vector<std::string> Toks = tokenize(Line);
    if (Toks.empty())
      continue;
    const std::string &Cmd = Toks[0];

    if (Cmd == "name") {
      if (Toks.size() < 2)
        return Fail("name requires an argument");
      P.Name = Toks[1];
      continue;
    }
    if (Cmd == "loc") {
      if (Toks.size() < 3)
        return Fail("loc requires a name and an initial value");
      int V;
      if (!parseInt(Toks[2], V))
        return Fail("bad initial value");
      LocId L = P.ensureLoc(Toks[1]);
      LocLines.resize(P.LocNames.size());
      if (LocLines[L])
        return Fail("location '" + Toks[1] + "' already declared at line " +
                    std::to_string(LocLines[L]));
      LocLines[L] = LineNo;
      if (V != 0)
        P.InitialValues.push_back({L, V});
      continue;
    }
    if (Cmd == "thread") {
      int T;
      if (Toks.size() < 2 || !parseInt(Toks[1], T) || T < 0)
        return Fail("bad thread index");
      // Threads are indexed densely, so the index sizes the program: an
      // execution has at most kMaxEvents events, hence at most that many
      // non-empty threads.
      if (static_cast<unsigned>(T) >= kMaxEvents)
        return Fail("thread index " + Toks[1] + " out of range (0.." +
                    std::to_string(kMaxEvents - 1) + ")");
      while (static_cast<int>(P.Threads.size()) <= T)
        P.Threads.emplace_back();
      while (P.SrcLines.size() < P.Threads.size())
        P.SrcLines.emplace_back();
      CurThread = T;
      continue;
    }
    if (Cmd == "post") {
      if (Toks.size() < 2)
        return Fail("incomplete postcondition");
      if (Toks[1] == "reg") {
        int T, V;
        if (Toks.size() < 5 || !parseInt(Toks[2], T))
          return Fail("post reg requires: thread, register, value");
        std::string Reg = Toks[3];
        if (!Reg.empty() && Reg[0] == 'r')
          Reg = Reg.substr(1);
        int RI;
        if (!parseInt(Reg, RI) || !parseInt(Toks[4], V))
          return Fail("bad post reg operands");
        // Thread and register are indices: a negative one must not wrap
        // to a huge unsigned one.
        if (T < 0)
          return Fail("post reg thread " + Toks[2] + " is negative");
        if (RI < 0)
          return Fail("post reg register " + Toks[3] + " is negative");
        P.RegPost.push_back({static_cast<unsigned>(T),
                             static_cast<unsigned>(RI), V});
        P.RegPostLines.push_back(LineNo);
        continue;
      }
      if (Toks[1] == "mem") {
        int V;
        if (Toks.size() < 4 || !parseInt(Toks[3], V))
          return Fail("post mem requires: location, value");
        P.MemPost.push_back({P.ensureLoc(Toks[2]), V});
        P.MemPostLines.push_back(LineNo);
        continue;
      }
      return Fail("unknown postcondition kind: " + Toks[1]);
    }

    // Everything else is an instruction inside the current thread.
    if (CurThread < 0)
      return Fail("instruction outside any thread");
    Instruction I;
    size_t AttrsFrom = 1;
    std::string AttrErr;

    if (Cmd == "load") {
      if (Toks.size() < 2)
        return Fail("load requires a location");
      I.K = Instruction::Kind::Load;
      I.Loc = P.ensureLoc(Toks[1]);
      AttrsFrom = 2;
      if (Toks.size() > 2) {
        bool Ok;
        MemOrder MO = parseOrder(Toks[2], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 3;
        }
      }
    } else if (Cmd == "store") {
      int V;
      if (Toks.size() < 3 || !parseInt(Toks[2], V))
        return Fail("store requires a location and a value");
      I.K = Instruction::Kind::Store;
      I.Loc = P.ensureLoc(Toks[1]);
      I.Value = V;
      AttrsFrom = 3;
      if (Toks.size() > 3) {
        bool Ok;
        MemOrder MO = parseOrder(Toks[3], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 4;
        }
      }
    } else if (Cmd == "fence") {
      if (Toks.size() < 2)
        return Fail("fence requires a flavour");
      bool Ok;
      I.K = Instruction::Kind::Fence;
      I.FK = parseFence(Toks[1], Ok);
      if (!Ok)
        return Fail("unknown fence flavour: " + Toks[1]);
      AttrsFrom = 2;
      if (I.FK == FenceKind::CppFence && Toks.size() > 2) {
        MemOrder MO = parseOrder(Toks[2], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 3;
        }
      }
    } else if (Cmd == "txbegin") {
      I.K = Instruction::Kind::TxBegin;
      if (Toks.size() > 1 && Toks[1] == "atomic") {
        I.TxnAtomic = true;
        AttrsFrom = 2;
      }
    } else if (Cmd == "txend") {
      I.K = Instruction::Kind::TxEnd;
    } else if (Cmd == "lock") {
      I.K = Instruction::Kind::Lock;
    } else if (Cmd == "unlock") {
      I.K = Instruction::Kind::Unlock;
    } else if (Cmd == "txlock") {
      I.K = Instruction::Kind::TxLock;
    } else if (Cmd == "txunlock") {
      I.K = Instruction::Kind::TxUnlock;
    } else {
      return Fail("unknown instruction: " + Cmd);
    }

    if (!parseAttrs(Toks, AttrsFrom, I, AttrErr))
      return Fail(AttrErr);
    P.Threads[CurThread].push_back(I);
    P.SrcLines[CurThread].push_back(LineNo);
  }

  return Res;
}

} // namespace reference

/// Empty when \p Src parses the same under both parsers: the same error
/// and line, or on success the same program, source lines and names.
std::string parseDifference(std::string_view Src) {
  ParseResult Got = parseProgram(Src);
  ParseResult Want = reference::parseProgram(Src);
  if (Got.Error != Want.Error || Got.ErrorLine != Want.ErrorLine)
    return "error '" + Got.Error + "' at " + std::to_string(Got.ErrorLine) +
           ", reference '" + Want.Error + "' at " +
           std::to_string(Want.ErrorLine);
  if (!Want)
    return {};
  if (printDsl(Got.Prog) != printDsl(Want.Prog))
    return "program differs:\n" + printDsl(Got.Prog) + "reference:\n" +
           printDsl(Want.Prog);
  if (Got.Prog.SrcLines != Want.Prog.SrcLines)
    return "SrcLines differ";
  if (Got.Prog.RegPostLines != Want.Prog.RegPostLines ||
      Got.Prog.MemPostLines != Want.Prog.MemPostLines)
    return "post lines differ";
  if (Got.Prog.LocNames != Want.Prog.LocNames)
    return "LocNames differ";
  return {};
}

/// Each line of \p Src mutated in turn: every token replaced by, and
/// every token boundary given, each of \p Words; every space swapped for
/// each other separator; a `#` comment appended. Returns whole sources.
std::vector<std::string> lineMutations(const std::string &Src,
                                       const std::vector<std::string> &Words) {
  std::vector<std::string> Lines;
  for (size_t Pos = 0; Pos < Src.size();) {
    size_t Nl = std::min(Src.find('\n', Pos), Src.size());
    Lines.push_back(Src.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  std::vector<std::string> Out;
  for (size_t L = 0; L < Lines.size(); ++L) {
    const std::string &Line = Lines[L];
    auto Emit = [&](const std::string &Mutant) {
      std::string Whole;
      for (size_t I = 0; I < Lines.size(); ++I)
        Whole.append(I == L ? Mutant : Lines[I]).push_back('\n');
      Out.push_back(std::move(Whole));
    };
    // Token spans, split on spaces (printDsl's only separator).
    std::vector<std::pair<size_t, size_t>> Spans;
    for (size_t I = 0; I < Line.size();) {
      if (Line[I] == ' ') {
        ++I;
        continue;
      }
      size_t End = std::min(Line.find(' ', I), Line.size());
      Spans.push_back({I, End});
      I = End;
    }
    for (const std::string &W : Words) {
      for (auto [Begin, End] : Spans)
        Emit(Line.substr(0, Begin) + W + Line.substr(End));
      for (auto [Begin, End] : Spans)
        Emit(Line.substr(0, Begin) + W + " " + Line.substr(Begin));
      Emit(Line + " " + W);
    }
    for (size_t I = 0; I < Line.size(); ++I)
      if (Line[I] == ' ')
        for (char Sep : {'\t', '\v', '\f', '\r'}) {
          std::string Mutant = Line;
          Mutant[I] = Sep;
          Emit(Mutant);
        }
    Emit(Line + " # comment");
  }
  return Out;
}

TEST(ParserOracleTest, MutatedCorpusParsesLikeTheReference) {
  const std::vector<std::string> Words = {
      "+1", "+-1", "+", "-", "-0", "007",
      std::to_string(INT_MAX), std::to_string(INT_MIN),
      std::to_string(INT_MAX + 1LL), std::to_string(INT_MIN - 1LL),
      "4294967296", "12345678901234567890", "r+2", "r-1", "addr:",
      "addr:r", "addr:+0", "rmw:+1", "#", "#x", "x#",
      std::string("1\0" "2", 3), "x\xe9"};
  std::vector<std::string> Sources = {kSeed};
  for (const CorpusEntry &E : sharedCorpus())
    Sources.push_back(printDsl(E.Prog));

  size_t Checked = 0, Differ = 0;
  std::string Examples;
  for (const std::string &Src : Sources) {
    std::vector<std::string> All = lineMutations(Src, Words);
    All.push_back(Src);
    for (const std::string &M : All) {
      ++Checked;
      std::string Diff = parseDifference(M);
      if (Diff.empty())
        continue;
      if (++Differ <= 3)
        Examples += "--- source:\n" + M + "--- " + Diff + "\n";
    }
  }
  EXPECT_GT(Checked, 50000u);
  EXPECT_EQ(Differ, 0u) << "of " << Checked << " sources\n" << Examples;
}

} // namespace
