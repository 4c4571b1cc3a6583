//===- litmus_test.cpp - Litmus conversion, printing, parsing (§2.2, §3.2) ----==//

#include "TestGraphs.h"
#include "litmus/FromExecution.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>
#include <tuple>
#include <type_traits>
#include <vector>

using namespace tmw;

namespace {

TEST(FromExecutionTest, Fig1Shape) {
  // Fig. 1: T0: Wx=1 -> rf -> T1 read; co to T1's write; postcondition
  // r0 = 2 /\ x = 2.
  ExecutionBuilder B;
  EventId A = B.write(0, 0, MemOrder::NonAtomic, 0); // a: W x
  EventId Bv = B.read(0, 0);                         // b: R x (same thread)
  EventId C = B.write(1, 0, MemOrder::NonAtomic, 0); // c: W x
  B.rf(C, Bv);
  B.co(A, C);
  Execution X = B.build();

  ExecutionToProgram Conv = programFromExecution(X, "fig1");
  const Program &P = Conv.Prog;
  ASSERT_EQ(P.Threads.size(), 2u);
  // Unique values by coherence position: a=1, c=2.
  EXPECT_EQ(P.Threads[0][0].Value, 1);
  EXPECT_EQ(P.Threads[1][0].Value, 2);
  // The read must observe c's value.
  ASSERT_EQ(P.RegPost.size(), 1u);
  EXPECT_EQ(P.RegPost[0].Value, 2);
  // Final memory pins the coherence maximum.
  ASSERT_EQ(P.MemPost.size(), 1u);
  EXPECT_EQ(P.MemPost[0].Value, 2);
}

TEST(FromExecutionTest, TransactionGetsOkLocation) {
  // Fig. 2: the transactional variant adds ok=1 initially and in the
  // postcondition.
  ExecutionBuilder B;
  EventId A = B.write(0, 0, MemOrder::NonAtomic, 0);
  EventId Bv = B.read(0, 0);
  EventId C = B.write(1, 0, MemOrder::NonAtomic, 0);
  B.rf(C, Bv);
  B.co(A, C);
  B.txn({A, Bv});
  Execution X = B.build();

  ExecutionToProgram Conv = programFromExecution(X, "fig2");
  const Program &P = Conv.Prog;
  LocId Ok = P.locByName("ok");
  ASSERT_GE(Ok, 0);
  EXPECT_EQ(P.initialValue(Ok), 1);
  bool OkAsserted = false;
  for (const MemAssertion &M : P.MemPost)
    OkAsserted |= M.Loc == Ok && M.Value == 1;
  EXPECT_TRUE(OkAsserted);
  // Transaction delimiters present on thread 0.
  EXPECT_EQ(P.Threads[0][0].K, Instruction::Kind::TxBegin);
  EXPECT_EQ(P.Threads[0].back().K, Instruction::Kind::TxEnd);
}

TEST(FromExecutionTest, ExpectedOutcomeSatisfiesPostcondition) {
  Execution X = shapes::messagePassing();
  ExecutionToProgram Conv = programFromExecution(X, "mp");
  Outcome O = expectedOutcome(X, Conv.Prog);
  EXPECT_TRUE(O.satisfies(Conv.Prog));
}

TEST(FromExecutionTest, DependenciesSurviveConversion) {
  Execution X = shapes::messagePassingDep(false);
  ExecutionToProgram Conv = programFromExecution(X, "mp+addr");
  bool FoundAddr = false;
  for (const auto &T : Conv.Prog.Threads)
    for (const Instruction &I : T)
      FoundAddr |= !I.AddrDeps.empty();
  EXPECT_TRUE(FoundAddr);
}

TEST(PrinterTest, GenericShowsInitAndTest) {
  Execution X = shapes::storeBuffering();
  Program P = programFromExecution(X, "SB").Prog;
  std::string S = printGeneric(P);
  EXPECT_NE(S.find("Initially:"), std::string::npos);
  EXPECT_NE(S.find("Test:"), std::string::npos);
  EXPECT_NE(S.find("thread 0"), std::string::npos);
  EXPECT_NE(S.find("thread 1"), std::string::npos);
}

TEST(PrinterTest, ArchitectureMnemonics) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 0);
  B.fence(0, FenceKind::MFence);
  EventId R = B.read(0, 0);
  B.rf(W, R);
  Program P = programFromExecution(B.build(), "t").Prog;
  EXPECT_NE(printAsm(P, Arch::X86).find("MFENCE"), std::string::npos);
  EXPECT_NE(printAsm(P, Arch::X86).find("MOVL"), std::string::npos);
}

TEST(PrinterTest, TransactionsSpecialisedPerArch) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 0);
  B.read(1, 0);
  B.txn({W});
  Program P = programFromExecution(B.build(), "txn").Prog;
  EXPECT_NE(printAsm(P, Arch::X86).find("XBEGIN"), std::string::npos);
  EXPECT_NE(printAsm(P, Arch::Power).find("tbegin."), std::string::npos);
  EXPECT_NE(printAsm(P, Arch::Armv8).find("TXBEGIN"), std::string::npos);
  EXPECT_NE(printCpp(P).find("synchronized {"), std::string::npos);
}

TEST(PrinterTest, CppAtomicsAndTransactions) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::SeqCst, 0);
  EventId R = B.read(1, 0, MemOrder::Acquire);
  B.rf(W, R);
  B.txn({R}, /*Atomic=*/true);
  Program P = programFromExecution(B.build(), "cpp").Prog;
  std::string S = printCpp(P);
  EXPECT_NE(S.find("memory_order_seq_cst"), std::string::npos);
  EXPECT_NE(S.find("memory_order_acquire"), std::string::npos);
  EXPECT_NE(S.find("atomic {"), std::string::npos);
}

TEST(ParserTest, ParsesSimpleTest) {
  const char *Src = R"(name SB
loc x 0
loc y 0
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  EXPECT_EQ(R.Prog.Threads.size(), 2u);
  EXPECT_EQ(R.Prog.Threads[0].size(), 2u);
  EXPECT_EQ(R.Prog.RegPost.size(), 2u);
}

TEST(ParserTest, ParsesTransactionsAndOrders) {
  const char *Src = R"(name T
loc x 0
thread 0
  txbegin atomic
  store x 1
  txend
thread 1
  load x acq
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  EXPECT_TRUE(R.Prog.Threads[0][0].TxnAtomic);
  EXPECT_EQ(R.Prog.Threads[1][0].MO, MemOrder::Acquire);
}

TEST(ParserTest, ReportsErrors) {
  EXPECT_FALSE(static_cast<bool>(parseProgram("bogus")));
  EXPECT_FALSE(static_cast<bool>(parseProgram("load x")));
  EXPECT_FALSE(static_cast<bool>(parseProgram("thread 0\n  fence warp")));
  EXPECT_FALSE(
      static_cast<bool>(parseProgram("thread 0\n  load x flub:r0")));
}

TEST(ParserTest, RoundTripsPrintDsl) {
  Execution X = shapes::lockElisionConcrete(false);
  Program P = programFromExecution(X, "ex11").Prog;
  std::string Dsl = printDsl(P);
  ParseResult R = parseProgram(Dsl);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  EXPECT_EQ(R.Prog.Threads.size(), P.Threads.size());
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    ASSERT_EQ(R.Prog.Threads[T].size(), P.Threads[T].size());
    for (unsigned I = 0; I < P.Threads[T].size(); ++I) {
      EXPECT_EQ(R.Prog.Threads[T][I].K, P.Threads[T][I].K);
      EXPECT_EQ(R.Prog.Threads[T][I].Loc, P.Threads[T][I].Loc);
      EXPECT_EQ(R.Prog.Threads[T][I].MO, P.Threads[T][I].MO);
    }
  }
  EXPECT_EQ(R.Prog.RegPost.size(), P.RegPost.size());
  EXPECT_EQ(R.Prog.MemPost.size(), P.MemPost.size());
}

TEST(OutcomeTest, SatisfactionAndFormatting) {
  Program P;
  P.LocNames = {"x"};
  P.RegPost.push_back({0, 1, 2});
  P.MemPost.push_back({0, 1});
  Outcome O;
  O.RegValues.push_back({0, 1, 2});
  O.MemValues = {1};
  EXPECT_TRUE(O.satisfies(P));
  EXPECT_EQ(O.str(P), "0:r1=2; x=1");
  O.MemValues = {0};
  EXPECT_FALSE(O.satisfies(P));
  // Missing register value fails the assertion.
  Outcome Empty;
  Empty.MemValues = {1};
  EXPECT_FALSE(Empty.satisfies(P));
}

/// An outcome with \p Regs registers and \p Locs locations, its values
/// offset by \p Seed.
Outcome makeOutcome(unsigned Regs, unsigned Locs, int Seed) {
  Outcome O;
  for (unsigned R = 0; R < Regs; ++R)
    O.RegValues.push_back({R % 2, R, Seed + static_cast<int>(R)});
  O.MemValues.assign(Locs, Seed);
  for (unsigned L = 0; L < Locs; ++L)
    O.MemValues[L] -= static_cast<int>(L);
  return O;
}

TEST(OutcomeTest, CopyMoveAndAssignAcrossInlineAndHeap) {
  static_assert(std::is_nothrow_move_constructible_v<Outcome>);
  static_assert(std::is_nothrow_move_assignable_v<Outcome>);
  const Outcome Small = makeOutcome(kOutcomeInline, 2, 1);
  const Outcome Big = makeOutcome(kOutcomeInline + 3, kOutcomeInline + 2, 7);
  ASSERT_GT(Big.RegValues.size(), kOutcomeInline);
  ASSERT_GT(Big.MemValues.size(), kOutcomeInline);
  ASSERT_NE(Small, Big);

  // Copies are equal and independent, on both paths.
  for (const Outcome *Src : {&Small, &Big}) {
    Outcome Copy = *Src;
    EXPECT_EQ(Copy, *Src);
    Copy.MemValues[1] += 100;
    EXPECT_NE(Copy, *Src);
  }

  // Copy assignment in every direction between the two paths.
  for (const Outcome *From : {&Small, &Big})
    for (const Outcome *To : {&Small, &Big}) {
      Outcome Dst = *To;
      Dst = *From;
      EXPECT_EQ(Dst, *From);
    }
  Outcome Self = Big;
  const Outcome &Alias = Self;
  Self = Alias;
  EXPECT_EQ(Self, Big);

  // Moves carry the elements and leave the source empty and reusable.
  for (const Outcome *Src : {&Small, &Big}) {
    Outcome From = *Src;
    Outcome To(std::move(From));
    EXPECT_EQ(To, *Src);
    EXPECT_TRUE(From.RegValues.empty());
    EXPECT_TRUE(From.MemValues.empty());
    From = *Src;
    EXPECT_EQ(From, *Src);
  }
  for (const Outcome *From : {&Small, &Big})
    for (const Outcome *To : {&Small, &Big}) {
      Outcome Src = *From, Dst = *To;
      Dst = std::move(Src);
      EXPECT_EQ(Dst, *From);
      EXPECT_TRUE(Src.RegValues.empty());
    }

  // Growing past the inline capacity keeps what was there.
  Outcome Grown = makeOutcome(kOutcomeInline, kOutcomeInline, 7);
  for (unsigned R = kOutcomeInline; R < Big.RegValues.size(); ++R)
    Grown.RegValues.push_back(Big.RegValues[R]);
  Grown.MemValues = Big.MemValues;
  EXPECT_EQ(Grown, Big);
}

TEST(OutcomeTest, OrderMatchesVectorOfTuples) {
  // The order the wire lists and the outcome map rest on: registers
  // first, then final memory, each lexicographically, as when they were
  // a std::vector of (thread, load, value) tuples and a std::vector<int>.
  using OldRegs = std::vector<std::tuple<unsigned, unsigned, int>>;
  auto OldLess = [](const Outcome &A, const Outcome &B) {
    OldRegs RA, RB;
    for (const auto &[T, L, V] : A.RegValues)
      RA.emplace_back(T, L, V);
    for (const auto &[T, L, V] : B.RegValues)
      RB.emplace_back(T, L, V);
    std::vector<int> MA(A.MemValues.begin(), A.MemValues.end());
    std::vector<int> MB(B.MemValues.begin(), B.MemValues.end());
    if (RA != RB)
      return RA < RB;
    return MA < MB;
  };

  // A mixed set: inline and heap sizes, shared prefixes, duplicates, and
  // values where signed and unsigned comparison disagree.
  const unsigned Threads[] = {0, 1, 0x80000000u};
  const int Values[] = {INT_MIN, -1, 0, 1, INT_MAX};
  std::mt19937 Rng(2018);
  auto Pick = [&Rng](auto &Pool) {
    return Pool[Rng() % std::size(Pool)];
  };
  std::vector<Outcome> Set;
  for (unsigned I = 0; I < 300; ++I) {
    Outcome O;
    unsigned Regs = Rng() % (kOutcomeInline + 3);
    unsigned Locs = Rng() % (kOutcomeInline + 3);
    for (unsigned R = 0; R < Regs; ++R)
      O.RegValues.push_back(
          {Pick(Threads), static_cast<unsigned>(Rng() % 3), Pick(Values)});
    for (unsigned L = 0; L < Locs; ++L)
      O.MemValues.push_back(Pick(Values));
    Set.push_back(O);
    if (I % 7 == 0)
      Set.push_back(O);
    if (I % 5 == 0 && Locs > 0) {
      O.MemValues[Locs - 1] = Pick(Values);
      Set.push_back(O);
    }
  }

  for (const Outcome &A : Set)
    for (const Outcome &B : Set) {
      ASSERT_EQ(A < B, OldLess(A, B));
      ASSERT_EQ(A == B, !OldLess(A, B) && !OldLess(B, A));
    }
  std::vector<Outcome> Sorted = Set, OldSorted = Set;
  std::sort(Sorted.begin(), Sorted.end());
  std::sort(OldSorted.begin(), OldSorted.end(), OldLess);
  EXPECT_EQ(Sorted, OldSorted);
}

} // namespace
