//===- lint_test.cpp - Litmus-program lint + static facts tests ---------------==//
///
/// The static analyzer (lint/Lint.h) pinned three ways:
///
///  * diagnostics — every lint rule fires on a minimal trigger program,
///    with the finding's code, severity, and (for DSL-parsed programs)
///    1-based source line pinned exactly; and the built-in corpus lints
///    clean, so the CI gate (`tmw_lint --corpus`) is meaningful;
///
///  * facts — `computeFacts` over-approximates soundly: each vocabulary
///    class appears exactly when the triggering construct does, and
///    `executionVocabulary` agrees on concrete executions (every
///    enumerated candidate of a program speaks a subset of the program's
///    vocabulary);
///
///  * specialization — `EvalPlan::specialize` is verdict-neutral (the
///    engine's specialized planned runs are byte-identical to the
///    independent reference path across jobs counts) while actually
///    discharging obligations on txn-free programs, and per-execution
///    specializations match direct model evaluation over an enumerated
///    sweep.
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "enumerate/Enumerator.h"
#include "lint/Lint.h"
#include "lint/LintIO.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "models/EvalPlan.h"
#include "models/ModelRegistry.h"
#include "query/Json.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

using namespace tmw;

namespace {

Program parsed(const char *Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  return R.Prog;
}

/// The first finding with \p Code (a copy: `lintProgram` returns by
/// value, so handing back a pointer into the argument would dangle).
std::optional<LintFinding> findingWithCode(const LintReport &R,
                                           std::string_view Code) {
  for (const LintFinding &F : R.Findings)
    if (F.Code == Code)
      return F;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Diagnostics: one minimal trigger per rule, lines pinned via SrcLines.
// ---------------------------------------------------------------------------

TEST(Lint_, CleanProgramHasNoFindings) {
  Program P = parsed("name SB\n"
                     "loc x 0\n"
                     "loc y 0\n"
                     "thread 0\n"
                     "  store x 1\n"
                     "  load y\n"
                     "thread 1\n"
                     "  store y 1\n"
                     "  load x\n"
                     "post reg 0 r1 0\n"
                     "post reg 1 r1 0\n");
  LintReport R = lintProgram(P);
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_FALSE(R.hasErrors());
}

TEST(Lint_, UnusedLocationWarnsAtProgramLevel) {
  Program P = parsed("loc x 0\n"
                     "loc ghost 0\n"
                     "thread 0\n"
                     "  load x\n");
  std::optional<LintFinding> F =
          findingWithCode(lintProgram(P), "unused-location");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Severity, LintSeverity::Warning);
  EXPECT_NE(F->Message.find("'ghost'"), std::string::npos);
  EXPECT_EQ(F->Thread, -1);
  EXPECT_EQ(F->Line, 0u);
}

TEST(Lint_, UninitializedLoadOnlyLocationWarns) {
  // x is loaded, never stored, and `loc x 0` records no initial value
  // (only non-zero initials are kept) — but an explicit non-zero initial
  // silences the rule.
  Program P = parsed("thread 0\n  load x\npost reg 0 r0 0\n");
  std::optional<LintFinding> F =
          findingWithCode(lintProgram(P), "uninitialized-location");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Severity, LintSeverity::Warning);

  Program Q = parsed("loc x 7\nthread 0\n  load x\npost reg 0 r0 7\n");
  EXPECT_FALSE(
      findingWithCode(lintProgram(Q), "uninitialized-location").has_value());
}

TEST(Lint_, EventAndTxnCapsAreErrors) {
  // kMaxEvents + 1 loads: the query engine refuses the program.
  Program P;
  P.LocNames = {"x"};
  P.Threads.emplace_back();
  for (unsigned I = 0; I <= kMaxEvents; ++I) {
    Instruction L;
    L.K = Instruction::Kind::Load;
    L.Loc = 0;
    P.Threads[0].push_back(L);
  }
  std::optional<LintFinding> F =
     findingWithCode(lintProgram(P), "too-many-events");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Severity, LintSeverity::Error);
  EXPECT_EQ(F->Line, 0u); // programmatic build: no source lines
  EXPECT_EQ(F->Message, "program produces 65 events; executions are capped "
                        "at 64 (kMaxEvents), so it cannot be checked");
  ProgramFacts PF = computeFacts(P);
  EXPECT_EQ(PF.Events, kMaxEvents + 1);
  EXPECT_EQ(PF.Txns, 0u);

  // kMaxTxns + 1 balanced transactions (delimiters produce no events, so
  // only the txn cap trips).
  Program Q;
  Q.LocNames = {"x"};
  Q.Threads.emplace_back();
  for (unsigned I = 0; I <= kMaxTxns; ++I) {
    Instruction B, E;
    B.K = Instruction::Kind::TxBegin;
    E.K = Instruction::Kind::TxEnd;
    Q.Threads[0].push_back(B);
    Q.Threads[0].push_back(E);
  }
  std::optional<LintFinding> G =
      findingWithCode(lintProgram(Q), "too-many-txns");
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->Message,
            "program opens 33 transactions; executions are capped at 32 "
            "transaction classes (kMaxTxns), so it cannot be checked");
  EXPECT_FALSE(findingWithCode(lintProgram(Q), "too-many-events").has_value());
  ProgramFacts QF = computeFacts(Q);
  EXPECT_EQ(QF.Events, 0u);
  EXPECT_EQ(QF.Txns, kMaxTxns + 1);
}

TEST(Lint_, UnbalancedTxnVariantsPinLines) {
  // Nested txbegin (line 4), and the still-open outer txn (line 3).
  Program P = parsed("loc x 0\n"       // 1
                     "thread 0\n"      // 2
                     "  txbegin\n"     // 3
                     "  txbegin\n"     // 4
                     "  store x 1\n"   // 5
                     "  txend\n");     // 6
  LintReport R = lintProgram(P);
  std::optional<LintFinding> Nested =
     findingWithCode(R, "unbalanced-txn");
  ASSERT_TRUE(Nested.has_value());
  EXPECT_EQ(Nested->Severity, LintSeverity::Error);
  EXPECT_EQ(Nested->Line, 4u);
  EXPECT_NE(Nested->Message.find("nested txbegin"), std::string::npos);

  Program Q = parsed("loc x 0\nthread 0\n  store x 1\n  txend\n");
  std::optional<LintFinding> Stray =
     findingWithCode(lintProgram(Q), "unbalanced-txn");
  ASSERT_TRUE(Stray.has_value());
  EXPECT_EQ(Stray->Line, 4u);
  EXPECT_NE(Stray->Message.find("without a matching txbegin"),
            std::string::npos);

  Program S = parsed("loc x 0\nthread 0\n  txbegin\n  store x 1\n");
  std::optional<LintFinding> Open =
     findingWithCode(lintProgram(S), "unbalanced-txn");
  ASSERT_TRUE(Open.has_value());
  EXPECT_EQ(Open->Line, 3u); // reported at the unclosed txbegin
  EXPECT_NE(Open->Message.find("without a matching txend"),
            std::string::npos);
}

TEST(Lint_, UnbalancedAndMismatchedLockRegions) {
  Program P = parsed("loc x 0\nthread 0\n  lock\n  store x 1\n  txunlock\n");
  std::optional<LintFinding> Mix =
     findingWithCode(lintProgram(P), "unbalanced-lock");
  ASSERT_TRUE(Mix.has_value());
  EXPECT_EQ(Mix->Line, 5u);
  EXPECT_NE(Mix->Message.find("closed by txunlock"), std::string::npos);

  Program Q = parsed("loc x 0\nthread 0\n  unlock\n  load x\n");
  ASSERT_TRUE(findingWithCode(lintProgram(Q), "unbalanced-lock").has_value());

  Program S = parsed("loc x 0\nthread 0\n  txlock\n  load x\n");
  std::optional<LintFinding> Open =
     findingWithCode(lintProgram(S), "unbalanced-lock");
  ASSERT_TRUE(Open.has_value());
  EXPECT_EQ(Open->Line, 3u);
  EXPECT_NE(Open->Message.find("txlock without a matching unlock"),
            std::string::npos);

  Program N = parsed("loc x 0\nthread 0\n  lock\n  lock\n  unlock\n");
  std::optional<LintFinding> Nest =
     findingWithCode(lintProgram(N), "unbalanced-lock");
  ASSERT_TRUE(Nest.has_value());
  EXPECT_EQ(Nest->Line, 4u);
  EXPECT_NE(Nest->Message.find("nested lock call"), std::string::npos);
}

TEST(Lint_, LockRegionCutByTransactionBoundary) {
  // An abort drops the transaction's events (§3.1): a lock region that
  // crosses the boundary loses one of its lock calls on the abort path.
  // One error each, at the crossing unlock or txend.
  Program Out = parsed("loc ok 1\nthread 0\n  lock\n  txbegin\n  store x 1\n"
                       "  unlock\n  txend\nthread 1\n  load x\n"
                       "post mem ok 0\n");
  LintReport R = lintProgram(Out);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Code, "unbalanced-lock");
  EXPECT_EQ(R.Findings[0].Severity, LintSeverity::Error);
  EXPECT_EQ(R.Findings[0].Line, 6u);
  EXPECT_EQ(R.Findings[0].Instruction, 3);
  EXPECT_NE(R.Findings[0].Message.find("an abort leaves the region open"),
            std::string::npos);

  Program In = parsed("loc ok 1\nthread 0\n  txbegin\n  lock\n  store x 1\n"
                      "  txend\n  unlock\nthread 1\n  load x\n"
                      "post mem ok 0\n");
  R = lintProgram(In);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Code, "unbalanced-lock");
  EXPECT_EQ(R.Findings[0].Severity, LintSeverity::Error);
  EXPECT_EQ(R.Findings[0].Line, 6u);
  EXPECT_EQ(R.Findings[0].Instruction, 3);
  EXPECT_NE(R.Findings[0].Message.find("txend cuts the lock region"),
            std::string::npos);

  // A region that holds a whole transaction, or lies inside one, is fine.
  for (const char *Src :
       {"loc ok 1\nthread 0\n  lock\n  txbegin\n  store x 1\n  txend\n"
        "  unlock\nthread 1\n  load x\npost mem ok 0\n",
        "loc ok 1\nthread 0\n  txbegin\n  lock\n  store x 1\n  unlock\n"
        "  txend\nthread 1\n  load x\npost mem ok 0\n"})
    EXPECT_TRUE(lintProgram(parsed(Src)).Findings.empty()) << Src;
}

TEST(Lint_, RmwPairRules) {
  // Well-paired RMW is clean.
  Program Ok = parsed("loc x 0\n"
                      "thread 0\n"
                      "  load x rmw:1\n"
                      "  store x 1 rmw:0\n");
  EXPECT_FALSE(findingWithCode(lintProgram(Ok), "bad-rmw-pair").has_value());

  // Partner out of range (line 3).
  Program Oor = parsed("loc x 0\nthread 0\n  load x rmw:5\n");
  std::optional<LintFinding> F =
     findingWithCode(lintProgram(Oor), "bad-rmw-pair");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Line, 3u);
  EXPECT_NE(F->Message.find("out of range"), std::string::npos);

  // Partner is not the opposite kind.
  Program Kind = parsed("loc x 0\nthread 0\n  load x rmw:1\n  load x\n");
  ASSERT_TRUE(
      findingWithCode(lintProgram(Kind), "bad-rmw-pair").has_value());

  // Partner does not point back.
  Program Back = parsed("loc x 0\nthread 0\n"
                        "  load x rmw:1\n  store x 1\n");
  std::optional<LintFinding> B =
     findingWithCode(lintProgram(Back), "bad-rmw-pair");
  ASSERT_TRUE(B.has_value());
  EXPECT_NE(B->Message.find("point back"), std::string::npos);

  // Pair across two locations.
  Program Loc = parsed("loc x 0\nloc y 0\nthread 0\n"
                       "  load x rmw:1\n  store y 1 rmw:0\n"
                       "post mem y 1\n");
  std::optional<LintFinding> L =
     findingWithCode(lintProgram(Loc), "bad-rmw-pair");
  ASSERT_TRUE(L.has_value());
  EXPECT_NE(L->Message.find("two different locations"), std::string::npos);

  // rmw on a fence is neither load nor store.
  Program Fence = parsed("loc x 0\nthread 0\n  fence mfence rmw:0\n  load x\n");
  std::optional<LintFinding> Fn =
     findingWithCode(lintProgram(Fence), "bad-rmw-pair");
  ASSERT_TRUE(Fn.has_value());
  EXPECT_NE(Fn->Message.find("neither a load nor a store"),
            std::string::npos);
}

TEST(Lint_, DependencyRules) {
  // Forward reference: r1 is not an earlier instruction at line 3.
  Program Fwd = parsed("loc x 0\nthread 0\n  load x addr:1\n  load x\n");
  std::optional<LintFinding> F =
     findingWithCode(lintProgram(Fwd), "bad-dependency");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Line, 3u);
  EXPECT_NE(F->Message.find("not an earlier instruction"), std::string::npos);

  // Dependency on a store: stores define no register.
  Program NonLoad =
      parsed("loc x 0\nloc y 0\nthread 0\n  store x 1\n  load y data:0\n");
  std::optional<LintFinding> N =
          findingWithCode(lintProgram(NonLoad), "bad-dependency");
  ASSERT_TRUE(N.has_value());
  EXPECT_EQ(N->Line, 5u);
  EXPECT_NE(N->Message.find("only loads define registers"),
            std::string::npos);

  // A legal ctrl dependency is clean.
  Program Ok = parsed("loc x 0\nloc y 0\nthread 0\n"
                      "  load x\n  store y 1 ctrl:0\n"
                      "post mem y 1\n");
  EXPECT_FALSE(findingWithCode(lintProgram(Ok), "bad-dependency").has_value());
}

TEST(Lint_, PostconditionRules) {
  // post reg names a thread that does not exist: the finding sits on the
  // post's line.
  Program Thr = parsed("loc x 0\nthread 0\n  load x\npost reg 3 r0 0\n");
  std::optional<LintFinding> T =
     findingWithCode(lintProgram(Thr), "bad-postcondition");
  ASSERT_TRUE(T.has_value());
  EXPECT_NE(T->Message.find("nonexistent thread 3"), std::string::npos);
  EXPECT_EQ(T->Line, 4u);
  EXPECT_EQ(T->Thread, -1);

  // post reg names a register past its thread's end: again the post's
  // line (the second post, not the first).
  Program Past = parsed("loc x 0\nthread 0\n  load x\n"
                        "post reg 0 r0 0\npost reg 0 r5 0\n");
  std::optional<LintFinding> P =
     findingWithCode(lintProgram(Past), "bad-postcondition");
  ASSERT_TRUE(P.has_value());
  EXPECT_NE(P->Message.find("post reg r5 of thread 0"), std::string::npos);
  EXPECT_EQ(P->Line, 5u);
  EXPECT_EQ(P->Thread, 0);
  EXPECT_EQ(P->Instruction, -1);

  // post reg names a store: registers are load instruction indices, so
  // the assertion can never be satisfied.
  Program St = parsed("loc x 0\nthread 0\n  store x 1\npost reg 0 r0 1\n");
  std::optional<LintFinding> S =
     findingWithCode(lintProgram(St), "bad-postcondition");
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Line, 3u); // pinned to the named instruction
  EXPECT_NE(S->Message.find("does not name a load"), std::string::npos);

  // post mem with an out-of-range location id (programmatic only: the
  // parser interns names, so a DSL post mem always resolves). On its
  // post's line when it has one, line 0 when it was built in code.
  Program Mem = parsed("loc x 0\nthread 0\n  store x 1\npost mem x 1\n");
  Mem.MemPost.push_back({LocId(99), 0});
  std::optional<LintFinding> M =
     findingWithCode(lintProgram(Mem), "bad-postcondition");
  ASSERT_TRUE(M.has_value());
  EXPECT_NE(M->Message.find("nonexistent location id 99"), std::string::npos);
  EXPECT_EQ(M->Line, 0u);
  Mem.MemPost.front().Loc = LocId(98);
  std::optional<LintFinding> M4 =
     findingWithCode(lintProgram(Mem), "bad-postcondition");
  ASSERT_TRUE(M4.has_value());
  EXPECT_NE(M4->Message.find("nonexistent location id 98"), std::string::npos);
  EXPECT_EQ(M4->Line, 4u);
}

TEST(Lint_, CorpusLintsClean) {
  // The CI gate's substance: every built-in corpus entry has zero
  // findings — warnings included.
  for (const CorpusEntry &E : sharedCorpus()) {
    LintReport R = lintProgram(E.Prog);
    EXPECT_TRUE(R.Findings.empty())
        << E.Name << ": " << (R.Findings.empty()
                                  ? ""
                                  : R.Findings.front().Message);
  }
}

// ---------------------------------------------------------------------------
// Facts and vocabulary.
// ---------------------------------------------------------------------------

TEST(Facts_, BaselineProgramSpeaksOnlyBase) {
  Program P = parsed("loc x 0\nloc y 0\n"
                     "thread 0\n  store x 1\n  load y\n"
                     "thread 1\n  store y 1\n  load x\n"
                     "post reg 0 r1 0\npost reg 1 r1 0\n");
  ProgramFacts F = computeFacts(P);
  EXPECT_TRUE(F.TxnFree);
  EXPECT_TRUE(F.RmwFree);
  EXPECT_TRUE(F.LockRegionFree);
  EXPECT_FALSE(F.SingleLocation);
  EXPECT_FALSE(F.AtomicOnly); // default accesses are non-atomic
  EXPECT_EQ(F.FenceKinds, 0u);
  EXPECT_EQ(F.Vocabulary, vocab::Base);
}

TEST(Facts_, EachConstructSetsItsClass) {
  ProgramFacts Txn = computeFacts(
      parsed("loc x 0\nthread 0\n  txbegin\n  store x 1\n  txend\n"
             "post mem x 1\n"));
  EXPECT_FALSE(Txn.TxnFree);
  EXPECT_EQ(Txn.Vocabulary, vocab::Base | vocab::Txn);

  ProgramFacts Rmw = computeFacts(
      parsed("loc x 0\nthread 0\n  load x rmw:1\n  store x 1 rmw:0\n"
             "post mem x 1\n"));
  EXPECT_FALSE(Rmw.RmwFree);
  EXPECT_EQ(Rmw.Vocabulary, vocab::Base | vocab::Rmw);

  ProgramFacts Lock = computeFacts(
      parsed("loc x 0\nthread 0\n  lock\n  store x 1\n  unlock\n"
             "post mem x 1\n"));
  EXPECT_FALSE(Lock.LockRegionFree);
  EXPECT_EQ(Lock.Vocabulary, vocab::Base | vocab::Lock);

  ProgramFacts Fence = computeFacts(
      parsed("loc x 0\nthread 0\n  store x 1\n  fence mfence\n  load x\n"
             "post reg 0 r2 1\n"));
  EXPECT_EQ(Fence.FenceKinds,
            1u << static_cast<unsigned>(FenceKind::MFence));
  EXPECT_EQ(Fence.Vocabulary, vocab::Base | vocab::fence(FenceKind::MFence));

  // An atomic transaction speaks Atomic as well as Txn.
  ProgramFacts ATxn = computeFacts(
      parsed("loc x 0\nthread 0\n  txbegin atomic\n  store x 1\n  txend\n"
             "post mem x 1\n"));
  EXPECT_EQ(ATxn.Vocabulary, vocab::Base | vocab::Txn | vocab::Atomic);
}

TEST(Facts_, AtomicOnlyAndSingleLocation) {
  ProgramFacts F = computeFacts(
      parsed("loc x 0\nthread 0\n  store x 1 sc\n  load x acq\n"
             "post reg 0 r1 1\n"));
  EXPECT_TRUE(F.AtomicOnly);
  EXPECT_TRUE(F.SingleLocation);
  EXPECT_EQ(F.Vocabulary, vocab::Base | vocab::Atomic);

  // One non-atomic access flips AtomicOnly; a second location flips
  // SingleLocation.
  ProgramFacts G = computeFacts(
      parsed("loc x 0\nloc y 0\nthread 0\n  store x 1 sc\n  load y\n"
             "post reg 0 r1 0\n"));
  EXPECT_FALSE(G.AtomicOnly);
  EXPECT_FALSE(G.SingleLocation);
}

TEST(Facts_, ExecutionVocabularyAgreesWithBuilders) {
  EXPECT_EQ(executionVocabulary(shapes::storeBuffering()), vocab::Base);

  // A fence-bearing execution.
  ExecutionBuilder FB;
  FB.write(0, 0, MemOrder::NonAtomic, 1);
  FB.fence(0, FenceKind::Dmb);
  FB.read(1, 0);
  EXPECT_EQ(executionVocabulary(FB.build()),
            vocab::Base | vocab::fence(FenceKind::Dmb));

  // A transactional one.
  ExecutionBuilder TB;
  EventId W = TB.write(0, 0, MemOrder::NonAtomic, 1);
  TB.read(1, 0);
  TB.txn({W});
  EXPECT_EQ(executionVocabulary(TB.build()), vocab::Base | vocab::Txn);

  // An RMW pair.
  ExecutionBuilder RB;
  EventId R = RB.read(0, 0);
  EventId W2 = RB.write(0, 0, MemOrder::NonAtomic, 1);
  RB.rmw(R, W2);
  EXPECT_EQ(executionVocabulary(RB.build()), vocab::Base | vocab::Rmw);

  // Atomic accesses.
  ExecutionBuilder AB;
  EventId AW = AB.write(0, 0, MemOrder::SeqCst, 1);
  EventId AR = AB.read(1, 0, MemOrder::Acquire);
  AB.rf(AW, AR);
  EXPECT_EQ(executionVocabulary(AB.build()), vocab::Base | vocab::Atomic);
}

TEST(Facts_, ProgramVocabularyBoundsEveryEnumeratedCandidate) {
  // Soundness of the over-approximation the specializer relies on: for a
  // txn-bearing corpus program, every enumerated candidate speaks a
  // subset of the program's vocabulary. (The enumerator adds transaction
  // placements only where the program declares them, fences only where
  // written, etc.)
  for (const CorpusEntry &E : sharedCorpus()) {
    ProgramFacts F = computeFacts(E.Prog);
    forEachCandidate(E.Prog, [&](const Candidate &C) {
      EXPECT_EQ(executionVocabulary(C.X) & ~F.Vocabulary, 0u)
          << E.Name << ": candidate speaks a class the program lacks";
      return !::testing::Test::HasFailure();
    });
  }
}

// ---------------------------------------------------------------------------
// Lint report JSON.
// ---------------------------------------------------------------------------

TEST(LintIO_, JsonIsCanonicalAndParses) {
  std::vector<LintedProgram> Batch;
  for (const char *Src :
       {"loc x 0\nthread 0\n  load x\npost reg 0 r0 0\n",
        "loc x 0\nloc ghost 0\nthread 0\n  txbegin\n  store x 1\npost mem x 1\n"}) {
    LintedProgram L;
    Program P = parsed(Src);
    L.Name = P.Name.empty() ? "anon" : P.Name;
    L.Report = lintProgram(P);
    L.Facts = computeFacts(P);
    Batch.push_back(std::move(L));
  }

  std::string Json = lintReportToJson(Batch);
  EXPECT_EQ(Json, lintReportToJson(Batch)); // deterministic
  EXPECT_EQ(Json.back(), '\n');

  std::optional<JsonValue> V = parseJson(Json);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getString("schema"), kLintReportSchema);
  const JsonValue *Programs = V->get("programs");
  ASSERT_NE(Programs, nullptr);
  ASSERT_TRUE(Programs->isArray());
  ASSERT_EQ(Programs->Arr.size(), 2u);

  // Second program: txbegin without txend + unused ghost location.
  const JsonValue &Dirty = Programs->Arr[1];
  EXPECT_GE(Dirty.getUint("errors"), 1u);
  EXPECT_GE(Dirty.getUint("warnings"), 1u);
  const JsonValue *Findings = Dirty.get("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  EXPECT_GE(Findings->Arr.size(), 2u);
  const JsonValue *Facts = Dirty.get("facts");
  ASSERT_NE(Facts, nullptr);
  EXPECT_FALSE(Facts->getBool("txn_free", true));
  EXPECT_EQ(Facts->getUint("vocabulary"), vocab::Base | vocab::Txn);

  // Batch rollup: the two programs' findings make it non-clean.
  EXPECT_FALSE(V->getBool("clean", true));
  EXPECT_GE(V->getUint("warnings"), 1u);
}

TEST(LintIO_, ParseFailureIsAnErrorFinding) {
  // A file that never parsed must not read as a clean, empty report.
  const char *Src = "name Bad\nthread 0\n  flurble x\n";
  std::vector<LintedProgram> Batch = {lintSource(Src, "bad.litmus")};
  ParseResult Parsed = parseProgram(Src);
  ASSERT_FALSE(static_cast<bool>(Parsed));
  ASSERT_EQ(Batch[0].Report.Findings.size(), 1u);
  const LintFinding &F = Batch[0].Report.Findings[0];
  EXPECT_EQ(F.Severity, LintSeverity::Error);
  EXPECT_EQ(F.Code, "parse-error");
  EXPECT_EQ(F.Message, Parsed.Error);
  EXPECT_EQ(F.Line, 3u);
  EXPECT_EQ(lintFindingsToText(Batch[0]),
            "bad.litmus:3: error: " + Parsed.Error + " [parse-error]\n");

  std::string Json = lintReportToJson(Batch);
  EXPECT_NE(Json.find("{\"name\": \"bad.litmus\", \"errors\": 1, "
                      "\"warnings\": 0, "),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("{\"severity\": \"error\", \"code\": "
                      "\"parse-error\", \"message\": " +
                      jsonQuote(Parsed.Error) +
                      ", \"thread\": -1, \"instruction\": -1, "
                      "\"line\": 3}"),
            std::string::npos)
      << Json;
  EXPECT_TRUE(Json.ends_with("\"errors\": 1, \"warnings\": 0, "
                             "\"clean\": false}\n"))
      << Json;
}

// ---------------------------------------------------------------------------
// Specialization: verdict-neutral, and actually discharging.
// ---------------------------------------------------------------------------

TEST(Specialize_, FullVocabularyDischargesNothing) {
  std::unique_ptr<MemoryModel> Power = ModelRegistry::parse("power");
  ASSERT_TRUE(Power);
  const MemoryModel *Raw[] = {Power.get()};
  EvalPlan Plan = EvalPlan::compile(Raw);
  EXPECT_EQ(Plan.specialize(~uint32_t(0)).discharged(), 0u);
}

TEST(Specialize_, TxnFreeProgramDischargesTxnObligations) {
  std::unique_ptr<MemoryModel> Power = ModelRegistry::parse("power");
  std::unique_ptr<MemoryModel> Tsc = ModelRegistry::parse("tsc");
  ASSERT_TRUE(Power);
  ASSERT_TRUE(Tsc);
  const MemoryModel *Raw[] = {Tsc.get(), Power.get()};
  EvalPlan Plan = EvalPlan::compile(Raw);

  ProgramFacts SbFacts =
      computeFacts(parsed("loc x 0\nloc y 0\n"
                          "thread 0\n  store x 1\n  load y\n"
                          "thread 1\n  store y 1\n  load x\n"
                          "post reg 0 r1 0\npost reg 1 r1 0\n"));
  EvalPlan::Specialization Sp = Plan.specialize(SbFacts);
  EXPECT_GT(Sp.discharged(), 0u);
  // A txn-speaking program discharges strictly less.
  EvalPlan::Specialization Full =
      Plan.specialize(SbFacts.Vocabulary | vocab::Txn | vocab::Rmw |
                      vocab::Lock | vocab::Atomic);
  EXPECT_LT(Full.discharged(), Sp.discharged());
}

TEST(Specialize_, PerExecutionSpecializationMatchesDirectEvaluation) {
  // For every enumerated execution of the x86 vocabulary, evaluating
  // under a specialization built from that execution's own vocabulary
  // (the tightest sound one) must answer exactly what the models answer.
  std::vector<std::unique_ptr<MemoryModel>> Owned;
  std::vector<const MemoryModel *> Raw;
  for (const char *Spec : {"sc", "tsc", "x86", "power", "armv8"}) {
    Owned.push_back(ModelRegistry::parse(Spec));
    ASSERT_TRUE(Owned.back()) << Spec;
    Raw.push_back(Owned.back().get());
  }
  EvalPlan Plan = EvalPlan::compile(Raw);
  EvalPlan::Scratch Scratch = Plan.makeScratch();
  std::optional<ExecutionAnalysis> Arena;
  uint64_t Seen = 0;
  ExecutionEnumerator Enum(Vocabulary::forArch(Arch::X86), 3);
  Enum.forEachBase([&](Execution &Base) {
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      if (!Arena)
        Arena.emplace(X);
      else
        Arena->reset(X);
      EvalPlan::Specialization Sp =
          Plan.specialize(executionVocabulary(X));
      Plan.evaluate(*Arena, Scratch, &Sp);
      ++Seen;
      for (size_t S = 0; S < Raw.size(); ++S)
        EXPECT_EQ(Scratch.consistent(S), Raw[S]->consistent(*Arena))
            << X.dump();
      return !::testing::Test::HasFailure();
    });
  });
  EXPECT_GT(Seen, 0u);
  EXPECT_GT(Scratch.counters().Discharged, 0u);
}

TEST(Specialize_, EngineRunsMatchIndependentBytes) {
  std::vector<CheckRequest> Requests;
  for (const CorpusEntry &E : standardCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = {"sc", "tsc", "x86", "power", "armv8", "power8",
                    "power/-TxnOrder", "x86/+baseline"};
    R.WantOutcomes = true;
    Requests.push_back(std::move(R));
  }
  std::string Reference = responsesToJson(
      QueryEngine({.Strategy = EvalStrategy::Independent}).runAll(Requests),
      nullptr);
  for (unsigned Jobs : {1u, 4u}) {
    BatchTelemetry T;
    std::string Planned = responsesToJson(
        QueryEngine({.Jobs = Jobs}).runAll(Requests, &T), nullptr);
    EXPECT_EQ(Planned, Reference) << "Jobs=" << Jobs;
    EXPECT_GT(T.Plan.Discharged, 0u) << "Jobs=" << Jobs;
  }
}

} // namespace
