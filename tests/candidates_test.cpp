//===- candidates_test.cpp - Candidate-execution enumeration (§2, §3.1) -------==//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "litmus/FromExecution.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

Program sbProgram() {
  ParseResult R = parseProgram(R"(name SB
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)");
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  return R.Prog;
}

TEST(CandidatesTest, SbHasFourRfCombinations) {
  // Each load reads its location's single store or the initial value.
  std::vector<Candidate> Cs = enumerateCandidates(sbProgram());
  EXPECT_EQ(Cs.size(), 4u);
  for (const Candidate &C : Cs)
    EXPECT_EQ(C.X.checkWellFormed(), nullptr);
}

TEST(CandidatesTest, OutcomesMatchRfChoices) {
  std::vector<Outcome> Outs;
  for (const Candidate &C : enumerateCandidates(sbProgram()))
    Outs.push_back(C.O);
  std::sort(Outs.begin(), Outs.end());
  // r-values: (0,0), (0,1), (1,0), (1,1).
  EXPECT_EQ(Outs.size(), 4u);
  EXPECT_NE(Outs[0], Outs[3]);
}

TEST(CandidatesTest, ScForbidsSbPostcondition) {
  ScModel Sc;
  EXPECT_FALSE(postconditionReachable(sbProgram(), Sc));
  X86Model X86;
  EXPECT_TRUE(postconditionReachable(sbProgram(), X86));
}

TEST(CandidatesTest, CoPermutationsEnumerated) {
  ParseResult R = parseProgram(R"(name 2W
thread 0
  store x 1
thread 1
  store x 2
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  std::vector<Candidate> Cs = enumerateCandidates(R.Prog);
  EXPECT_EQ(Cs.size(), 2u); // two coherence orders
}

TEST(CandidatesTest, TransactionsSucceedOrVanish) {
  ParseResult R = parseProgram(R"(name T
loc ok 1
thread 0
  txbegin
  store x 1
  txend
thread 1
  load x
post mem ok 1
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  std::vector<Candidate> Cs = enumerateCandidates(R.Prog);
  // Success: load reads init or the store (2 candidates, ok=1).
  // Failure: store vanishes, load reads init (1 candidate, ok=0).
  EXPECT_EQ(Cs.size(), 3u);
  unsigned Failed = 0;
  LocId Ok = R.Prog.locByName("ok");
  for (const Candidate &C : Cs) {
    if (C.O.MemValues[Ok] == 0) {
      ++Failed;
      EXPECT_TRUE(C.X.transactional().empty());
    }
  }
  EXPECT_EQ(Failed, 1u);
}

TEST(CandidatesTest, FailedTransactionCannotSatisfyOkPostcondition) {
  ParseResult R = parseProgram(R"(name T
loc ok 1
thread 0
  txbegin
  store x 1
  txend
thread 1
  load x
post mem ok 1
post reg 1 r0 1
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  // The post requires the transactional store to be observed AND ok=1:
  // only the successful-transaction candidate qualifies.
  unsigned Matching = 0;
  for (const Candidate &C : enumerateCandidates(R.Prog))
    Matching += C.O.satisfies(R.Prog);
  EXPECT_EQ(Matching, 1u);
}

TEST(CandidatesTest, GeneratedTestRecoversItsExecution) {
  // Convert an execution to a litmus test; among that test's candidates,
  // exactly the intended one satisfies the postcondition (§2.2).
  Execution X = shapes::messagePassing();
  ExecutionToProgram Conv = programFromExecution(X, "mp");
  unsigned Matching = 0;
  for (const Candidate &C : enumerateCandidates(Conv.Prog))
    if (C.O.satisfies(Conv.Prog))
      ++Matching;
  EXPECT_EQ(Matching, 1u);
}

TEST(CandidatesTest, DependenciesReachCandidates) {
  Execution X = shapes::loadBuffering(true);
  ExecutionToProgram Conv = programFromExecution(X, "lb+deps");
  bool SawData = false;
  for (const Candidate &C : enumerateCandidates(Conv.Prog))
    SawData |= !C.X.Data.isEmpty();
  EXPECT_TRUE(SawData);
}

/// FNV-1a over a candidate stream: each candidate's `Execution::hash`
/// (events, txn/cr classes, every relation) and its outcome's values, in
/// enumeration order.
struct StreamDigest {
  uint64_t H = 0xcbf29ce484222325ull;
  uint64_t Count = 0;

  void mix(uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  }
  void add(const Candidate &C) {
    ++Count;
    mix(C.X.hash());
    for (const auto &[T, I, V] : C.O.RegValues) {
      mix(T);
      mix(I);
      mix(static_cast<uint64_t>(V));
    }
    for (int V : C.O.MemValues)
      mix(static_cast<uint64_t>(V));
  }
};

TEST(CandidatesTest, CorpusStreamIsPinned) {
  // The order and content of the corpus candidate stream, pinned: the
  // engine's `first_forbidden` indices are positions in this stream.
  StreamDigest D;
  for (const CorpusEntry &E : sharedCorpus())
    forEachCandidate(E.Prog, [&D](const Candidate &C) {
      D.add(C);
      return true;
    });
  EXPECT_EQ(D.Count, 403u);
  EXPECT_EQ(D.H, 0x3efb497d1eca5012ull);
}

TEST(CandidatesTest, EveryCandidatePassesTheFullCheck) {
  // The oracle for checking each shape once: the rf/co choices over a
  // well-formed shape are well-formed by construction, so every candidate
  // passes the full per-candidate `checkWellFormed`.
  auto CheckAll = [](const Program &P) {
    uint64_t Count = 0;
    const char *Err = forEachCandidate(P, [&](const Candidate &C) {
      ++Count;
      EXPECT_EQ(C.X.checkWellFormed(), nullptr) << P.Name;
      return true;
    });
    EXPECT_EQ(Err, nullptr) << P.Name;
    return Count;
  };
  uint64_t Total = 0;
  for (const CorpusEntry &E : sharedCorpus())
    Total += CheckAll(E.Prog);
  EXPECT_EQ(Total, 403u);

  // Three writers of one location: co takes all six permutations, each
  // with the load's four rf choices.
  ParseResult R = parseProgram(R"(name 3W
thread 0
  store x 1
thread 1
  store x 2
thread 2
  store x 3
  load x
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  EXPECT_EQ(CheckAll(R.Prog), 24u);
}

TEST(CandidatesTest, IllFormedAbortShapeIsReported) {
  // The transaction may abort, and its abort drops the unlock of a region
  // opened before it: that shape is ill-formed and yields no candidate;
  // the success shape still yields its two, each fully well-formed.
  ParseResult R = parseProgram(R"(name AbortLeavesLockHeld
loc ok 1
thread 0
  lock
  txbegin
  store x 1
  unlock
  txend
thread 1
  load x
post mem ok 0
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  uint64_t Count = 0;
  const char *Err = forEachCandidate(R.Prog, [&](const Candidate &C) {
    ++Count;
    EXPECT_EQ(C.X.checkWellFormed(), nullptr);
    EXPECT_FALSE(C.X.transactional().empty()); // the success shape
    return true;
  });
  EXPECT_STREQ(Err, "critical region not delimited by matching lock/unlock");
  EXPECT_EQ(Count, 2u);
}

TEST(CandidatesTest, ShapesAfterASinkStopAreStillChecked) {
  // Both transactions aborting is well-formed; the first succeeding
  // alone keeps the lock call and drops the unlock. A sink that stops at
  // the first candidate must not hide that later shape.
  ParseResult R = parseProgram(R"(name CutTwice
thread 0
  txbegin
  lock
  store x 1
  txend
  txbegin
  unlock
  txend
thread 1
  load x
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  unsigned Seen = 0;
  const char *Err = forEachCandidate(R.Prog, [&Seen](const Candidate &C) {
    ++Seen;
    EXPECT_TRUE(C.X.transactional().empty()); // both aborted
    return false;
  });
  EXPECT_EQ(Seen, 1u);
  EXPECT_STREQ(Err, "critical region not delimited by matching lock/unlock");
}

TEST(CandidatesTest, AllowedOutcomesDeduplicated) {
  ScModel Sc;
  std::vector<Outcome> Outs = allowedOutcomes(sbProgram(), Sc);
  // SC allows 3 of the 4 rf combinations (both-stale is forbidden).
  EXPECT_EQ(Outs.size(), 3u);
}

} // namespace
