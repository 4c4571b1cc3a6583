//===- parser_error_test.cpp - Litmus DSL parser error paths ------------------==//
///
/// Every distinct diagnostic of `parseProgram` (litmus/Parser.cpp), each
/// pinned with its exact message and 1-based error line — so a reworded
/// or re-homed diagnostic is a deliberate test edit, not drift — plus a
/// fuzz-ish sweep of truncated and garbled programs that must fail
/// cleanly (no crash, a nonzero `ErrorLine`, a non-empty message) or
/// parse to a program the lint pass can still walk.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "litmus/Parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tmw;

namespace {

/// Assert \p Src fails to parse with exactly \p Message at \p Line.
void expectError(const char *Src, const char *Message, unsigned Line) {
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

} // namespace
