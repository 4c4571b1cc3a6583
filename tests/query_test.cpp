//===- query_test.cpp - Batch query engine tests ------------------------------==//
///
/// The request/response facade (query/QueryEngine.h) checked differentially
/// against the direct per-model loops it replaced: for the litmus corpus
/// (plus one program whose outcomes outgrow their inline storage) × a
/// matrix of registry specs (including ablations and hardware-substitute
/// wrappers), the engine's enumerate-once/check-many verdicts — allowed,
/// consistent counts, first-forbidden index, failed-axiom names, allowed
/// outcome sets — must equal a fresh enumeration per model with throwaway
/// analyses, in every collection mode (explain and outcomes each on or
/// off) under both evaluation strategies. Plus: batch output
/// byte-identical for Jobs in {1, 4, 16},
/// in-order streaming, candidate caps, request-level error reporting,
/// and the refusal of exactly the programs with a lint error (past the
/// enumeration caps, unbalanced regions, dangling dependencies or
/// postconditions), even when a stale answer for one is stored.
///
//===----------------------------------------------------------------------===//

#include "enumerate/Candidates.h"
#include "lint/Lint.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "query/SessionCache.h"
#include "store/VerdictStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include <unistd.h>

using namespace tmw;

namespace {

/// The spec matrix of the differential test: every architecture, two
/// ablation scenarios, and two hardware-substitute wrappers.
const std::vector<std::string> kSpecMatrix = {
    "sc",   "tsc",          "x86",    "power",     "armv8",
    "cpp",  "power/-TxnOrder", "x86/+baseline", "power8", "armv8-rtl"};

/// What the pre-engine consumers computed: one full enumeration for this
/// model, one throwaway analysis per candidate.
struct DirectVerdict {
  bool Allowed = false;
  uint64_t Consistent = 0;
  int64_t FirstForbidden = -1;
  std::vector<FailedAxiomInfo> FailedAxioms;
  std::vector<Outcome> AllowedOutcomes;
};

DirectVerdict directCheck(const Program &P, const MemoryModel &M,
                          size_t Cap = 0) {
  DirectVerdict Out;
  std::vector<Candidate> Cands = enumerateCandidates(P);
  if (Cap && Cands.size() > Cap)
    Cands.resize(Cap);
  const Execution *FirstForbidden = nullptr;
  for (size_t I = 0; I < Cands.size(); ++I) {
    const Candidate &C = Cands[I];
    if (M.consistent(C.X)) {
      ++Out.Consistent;
      Out.Allowed |= C.O.satisfies(P);
      Out.AllowedOutcomes.push_back(C.O);
    } else if (!FirstForbidden) {
      FirstForbidden = &C.X;
      Out.FirstForbidden = static_cast<int64_t>(I);
    }
  }
  if (FirstForbidden) {
    ExecutionAnalysis A(*FirstForbidden);
    for (const AxiomVerdict &V : M.checkAll(A).Verdicts) {
      if (V.Holds)
        continue;
      FailedAxiomInfo &F = Out.FailedAxioms.emplace_back();
      F.Axiom = std::string(V.Ax->Name);
      for (EventId E : V.Witness)
        F.Witness.push_back(E);
    }
  }
  std::sort(Out.AllowedOutcomes.begin(), Out.AllowedOutcomes.end());
  Out.AllowedOutcomes.erase(
      std::unique(Out.AllowedOutcomes.begin(), Out.AllowedOutcomes.end()),
      Out.AllowedOutcomes.end());
  return Out;
}

/// A request against the differential spec matrix, naming no program yet.
CheckRequest matrixRequest(bool Explain, bool Outcomes) {
  CheckRequest R;
  R.ModelSpecs = kSpecMatrix;
  R.Explain = Explain;
  R.WantOutcomes = Outcomes;
  return R;
}

std::vector<CheckRequest> corpusRequests(bool Explain, bool Outcomes) {
  std::vector<CheckRequest> Requests;
  for (const CorpusEntry &E : standardCorpus())
    Requests.emplace_back(matrixRequest(Explain, Outcomes)).Corpus = E.Name;
  return Requests;
}

/// Message passing over five locations: every outcome has five registers
/// and five final values, past `kOutcomeInline`, so each one the engine
/// collects, copies and frees takes the heap path.
const char *const kWideSource = "name Wide5\n"
                                "thread 0\n"
                                "  store a 1\n"
                                "  store b 1\n"
                                "  store c 1\n"
                                "  store d 1\n"
                                "  store e 1\n"
                                "thread 1\n"
                                "  load e\n"
                                "  load d\n"
                                "  load c\n"
                                "  load b\n"
                                "  load a\n"
                                "post reg 1 r0 1\n"
                                "post reg 1 r4 0\n";

/// \p Got against the direct loop's \p Want, for a request that asked
/// for explanations (\p Explain) and outcomes (\p Outcomes) or not: what
/// was not asked for must be absent.
void expectVerdict(const ModelVerdict &Got, const DirectVerdict &Want,
                   bool Explain, bool Outcomes) {
  EXPECT_EQ(Got.Allowed, Want.Allowed);
  EXPECT_EQ(Got.Consistent, Want.Consistent);
  EXPECT_EQ(Got.FirstForbidden, Want.FirstForbidden);
  if (Explain) {
    // Names and witness events, from a fresh analysis of a copy.
    ASSERT_EQ(Got.FailedAxioms.size(), Want.FailedAxioms.size());
    for (size_t F = 0; F < Want.FailedAxioms.size(); ++F) {
      EXPECT_EQ(Got.FailedAxioms[F].Axiom, Want.FailedAxioms[F].Axiom);
      EXPECT_EQ(Got.FailedAxioms[F].Witness, Want.FailedAxioms[F].Witness);
    }
  } else {
    EXPECT_TRUE(Got.FailedAxioms.empty());
  }
  if (Outcomes) {
    EXPECT_EQ(Got.AllowedOutcomes, Want.AllowedOutcomes);
    // Collected to its exact size: a moved response carries no slack.
    EXPECT_EQ(Got.AllowedOutcomes.capacity(), Got.AllowedOutcomes.size());
  } else {
    EXPECT_TRUE(Got.AllowedOutcomes.empty());
  }
}

TEST(QueryEngine_, DifferentialAgainstDirectLoops) {
  // Every collection mode, under both evaluation strategies, over the
  // corpus plus one inline program whose outcomes outgrow the inline
  // capacity.
  std::vector<CorpusEntry> Corpus = standardCorpus();
  ParseResult Wide = parseProgram(kWideSource);
  ASSERT_TRUE(Wide) << Wide.Error;
  for (const Candidate &C : enumerateCandidates(Wide.Prog)) {
    ASSERT_GT(C.O.RegValues.size(), kOutcomeInline);
    ASSERT_GT(C.O.MemValues.size(), kOutcomeInline);
  }
  CorpusEntry &WideEntry = Corpus.emplace_back();
  WideEntry.Name = "Wide5";
  WideEntry.Prog = Wide.Prog;
  std::vector<std::vector<DirectVerdict>> Direct(Corpus.size());
  for (size_t E = 0; E < Corpus.size(); ++E)
    for (const std::string &Spec : kSpecMatrix) {
      std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec);
      ASSERT_TRUE(M) << Spec;
      Direct[E].push_back(directCheck(Corpus[E].Prog, *M));
    }

  for (bool Explain : {false, true})
    for (bool Outcomes : {false, true})
      for (EvalStrategy Strategy :
           {EvalStrategy::Planned, EvalStrategy::Independent}) {
        std::vector<CheckRequest> Requests = corpusRequests(Explain, Outcomes);
        Requests.emplace_back(matrixRequest(Explain, Outcomes)).Source =
            kWideSource;
        std::vector<CheckResponse> Responses =
            QueryEngine({.Strategy = Strategy}).runAll(Requests);
        ASSERT_EQ(Responses.size(), Corpus.size());
        for (size_t E = 0; E < Corpus.size(); ++E) {
          const CheckResponse &Resp = Responses[E];
          ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.Error;
          EXPECT_EQ(Resp.Name, Corpus[E].Name);
          EXPECT_EQ(Resp.Candidates,
                    enumerateCandidates(Corpus[E].Prog).size());
          ASSERT_EQ(Resp.Verdicts.size(), kSpecMatrix.size());
          for (size_t S = 0; S < kSpecMatrix.size(); ++S) {
            SCOPED_TRACE(Corpus[E].Name + " under " + kSpecMatrix[S] +
                         (Explain ? ", explain" : "") +
                         (Outcomes ? ", outcomes" : "") +
                         (Strategy == EvalStrategy::Planned
                              ? ", planned"
                              : ", independent"));
            expectVerdict(Resp.Verdicts[S], Direct[E][S], Explain, Outcomes);
          }
        }
      }
}

TEST(QueryEngine_, ReachabilityMatchesPostconditionReachable) {
  for (const CorpusEntry &E : standardCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name; // empty ModelSpecs: the six default archs
    CheckResponse Resp = QueryEngine().evaluate(R);
    ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.Error;
    ASSERT_EQ(Resp.Verdicts.size(), ModelRegistry::allArchs().size());
    for (size_t S = 0; S < Resp.Verdicts.size(); ++S) {
      std::unique_ptr<MemoryModel> M =
          ModelRegistry::make(ModelRegistry::allArchs()[S]);
      EXPECT_EQ(Resp.Verdicts[S].Allowed,
                postconditionReachable(E.Prog, *M))
          << E.Name << " under " << M->name();
    }
  }
}

TEST(QueryEngine_, DisabledAxiomNeverReported) {
  // power/-TxnOrder must never blame TxnOrder: ablated axioms are out of
  // the check, so they cannot appear among the failed axioms.
  for (const CorpusEntry &E : standardCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = {"power/-TxnOrder"};
    R.Explain = true;
    CheckResponse Resp = QueryEngine().evaluate(R);
    ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.Error;
    for (const FailedAxiomInfo &F : Resp.Verdicts[0].FailedAxioms)
      EXPECT_NE(F.Axiom, "TxnOrder") << E.Name;
  }
}

TEST(QueryEngine_, BatchJsonByteIdenticalAcrossJobs) {
  std::vector<CheckRequest> Requests =
      corpusRequests(/*Explain=*/true, /*Outcomes=*/true);
  std::string Golden;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    std::vector<CheckResponse> Responses =
        QueryEngine({Jobs}).runAll(Requests);
    std::string Json = responsesToJson(Responses);
    if (Golden.empty())
      Golden = Json;
    else
      EXPECT_EQ(Json, Golden) << "Jobs = " << Jobs;
  }
  EXPECT_FALSE(Golden.empty());
}

TEST(QueryEngine_, StreamsInRequestOrder) {
  std::vector<CheckRequest> Requests =
      corpusRequests(/*Explain=*/false, /*Outcomes=*/false);
  for (unsigned Jobs : {1u, 7u}) {
    std::vector<std::string> Names;
    BatchTelemetry T =
        QueryEngine({Jobs}).run(Requests, [&](const CheckResponse &R) {
          Names.push_back(R.Name);
        });
    ASSERT_EQ(Names.size(), Requests.size());
    for (size_t I = 0; I < Names.size(); ++I)
      EXPECT_EQ(Names[I], Requests[I].Corpus) << "Jobs = " << Jobs;
    EXPECT_EQ(T.Programs, Requests.size());
    // Every request was processed by exactly one worker.
    uint64_t Tasks = 0;
    for (const WorkerLoad &L : T.Workers)
      Tasks += L.Tasks;
    EXPECT_EQ(Tasks, Requests.size());
  }
}

TEST(QueryEngine_, CandidateCapTruncatesDeterministically) {
  CheckRequest Full;
  Full.Corpus = "IRIW";
  Full.ModelSpecs = {"sc", "power"};
  CheckResponse FullResp = QueryEngine().evaluate(Full);
  ASSERT_TRUE(static_cast<bool>(FullResp)) << FullResp.Error;
  ASSERT_GT(FullResp.Candidates, 3u);
  EXPECT_FALSE(FullResp.Truncated);

  // Capped, with outcomes: every verdict, outcomes included, is the
  // direct loop's over the first three candidates.
  CheckRequest Capped = Full;
  Capped.CandidateCap = 3;
  Capped.WantOutcomes = true;
  CheckResponse CapResp = QueryEngine().evaluate(Capped);
  ASSERT_TRUE(static_cast<bool>(CapResp)) << CapResp.Error;
  EXPECT_TRUE(CapResp.Truncated);
  EXPECT_EQ(CapResp.Candidates, 3u);
  ASSERT_EQ(CapResp.Verdicts.size(), Capped.ModelSpecs.size());
  const Program &P = findCorpusEntry("IRIW")->Prog;
  for (size_t S = 0; S < Capped.ModelSpecs.size(); ++S) {
    SCOPED_TRACE(Capped.ModelSpecs[S]);
    std::unique_ptr<MemoryModel> M =
        ModelRegistry::parse(Capped.ModelSpecs[S]);
    ASSERT_TRUE(M);
    expectVerdict(CapResp.Verdicts[S], directCheck(P, *M, 3),
                  /*Explain=*/false, /*Outcomes=*/true);
    EXPECT_LE(CapResp.Verdicts[S].Consistent, 3u);
  }
}

TEST(QueryEngine_, RequestErrors) {
  QueryEngine Engine;

  CheckRequest BadSpec;
  BadSpec.Corpus = "SB";
  BadSpec.ModelSpecs = {"z80"};
  CheckResponse R1 = Engine.evaluate(BadSpec);
  EXPECT_FALSE(static_cast<bool>(R1));
  std::string RegistryError;
  ASSERT_EQ(ModelRegistry::parse("z80", &RegistryError), nullptr);
  EXPECT_EQ(R1.Error, "model spec 'z80': " + RegistryError);
  EXPECT_TRUE(R1.Verdicts.empty());

  CheckRequest BadCorpus;
  BadCorpus.Corpus = "NoSuchTest";
  CheckResponse R2 = Engine.evaluate(BadCorpus);
  EXPECT_FALSE(static_cast<bool>(R2));
  EXPECT_NE(R2.Error.find("NoSuchTest"), std::string::npos);

  CheckRequest BadSource;
  BadSource.Source = "name x\nthread 0\n  flurble y\n";
  CheckResponse R3 = Engine.evaluate(BadSource);
  EXPECT_FALSE(static_cast<bool>(R3));
  EXPECT_EQ(R3.ErrorLine, 3u);
  EXPECT_NE(R3.Error.find("flurble"), std::string::npos);

  CheckRequest Empty;
  CheckResponse R4 = Engine.evaluate(Empty);
  EXPECT_FALSE(static_cast<bool>(R4));

  CheckRequest Both;
  Both.Source = "name x\n";
  Both.Corpus = "SB";
  CheckResponse R5 = Engine.evaluate(Both);
  EXPECT_FALSE(static_cast<bool>(R5));

  // This program lints with an error (a lock region closed by txunlock,
  // so every shape is ill-formed): refused before enumeration with the
  // finding, its code and its line, not "allowed: false".
  CheckRequest Unbalanced;
  Unbalanced.Source = "name lockprobe\nthread 0\n  lock\n  store x 1\n"
                      "  txunlock\n";
  Unbalanced.ModelSpecs = {"x86"};
  CheckResponse R6 = Engine.evaluate(Unbalanced);
  EXPECT_FALSE(static_cast<bool>(R6));
  EXPECT_EQ(R6.Error,
            "region opened by lock is closed by txunlock [unbalanced-lock]");
  EXPECT_EQ(R6.ErrorLine, 5u);
  EXPECT_EQ(R6.Candidates, 0u);
  EXPECT_TRUE(R6.Verdicts.empty());

  // Only the abort shape is ill-formed here: the transaction may abort,
  // its handler zeroes `ok`, but the abort drops one lock call of a region
  // the transaction boundary cuts. Refused, not answered "forbidden" from
  // the success shape alone — in both nestings, at the crossing line.
  for (const auto &[Source, Message, Line] :
       {std::tuple{"name AbortLeavesLockHeld\nloc ok 1\nthread 0\n  lock\n"
                   "  txbegin\n  store x 1\n  unlock\n  txend\n"
                   "thread 1\n  load x\npost mem ok 0\n",
                   "unlock inside a transaction closes the lock region opened "
                   "at instruction 0 outside it, so an abort leaves the "
                   "region open [unbalanced-lock]",
                   7u},
        std::tuple{"name TxnCutsLockRegion\nloc ok 1\nthread 0\n  txbegin\n"
                   "  lock\n  store x 1\n  txend\n  unlock\n"
                   "thread 1\n  load x\npost mem ok 0\n",
                   "txend cuts the lock region opened at instruction 1, so "
                   "an abort drops its lock call but keeps its unlock "
                   "[unbalanced-lock]",
                   7u}}) {
    CheckRequest Cut;
    Cut.Source = Source;
    Cut.ModelSpecs = {"x86"};
    CheckResponse R7 = Engine.evaluate(Cut);
    EXPECT_FALSE(static_cast<bool>(R7));
    EXPECT_EQ(R7.Error, Message);
    EXPECT_EQ(R7.ErrorLine, Line);
    EXPECT_EQ(R7.Candidates, 0u);
    EXPECT_TRUE(R7.Verdicts.empty());
  }

  // A candidate cap cannot let a refused program through: the refusal
  // comes before enumeration, with every error in line order.
  CheckRequest Capped;
  Capped.Source = "name CutTwice\nthread 0\n  txbegin\n  lock\n  store x 1\n"
                  "  txend\n  txbegin\n  unlock\n  txend\n"
                  "thread 1\n  load x\n";
  Capped.ModelSpecs = {"x86"};
  Capped.CandidateCap = 1;
  CheckResponse R8 = Engine.evaluate(Capped);
  EXPECT_EQ(R8.Error.rfind("txend cuts the lock region opened at "
                           "instruction 1",
                           0),
            0u)
      << R8.Error;
  EXPECT_NE(R8.Error.find("[unbalanced-lock]; unlock inside a transaction"),
            std::string::npos)
      << R8.Error;
  EXPECT_EQ(R8.ErrorLine, 6u); // the txend that cuts the region
  EXPECT_FALSE(R8.Truncated);
  EXPECT_TRUE(R8.Verdicts.empty());

  // A failing request inside a batch fails only itself.
  std::vector<CheckRequest> Mixed;
  CheckRequest Ok;
  Ok.Corpus = "SB";
  Mixed.push_back(BadCorpus);
  Mixed.push_back(Ok);
  std::vector<CheckResponse> Rs = Engine.runAll(Mixed);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_FALSE(static_cast<bool>(Rs[0]));
  EXPECT_TRUE(static_cast<bool>(Rs[1])) << Rs[1].Error;
}

/// `Loads` loads of x on one thread, the last `TxnLoads` of them inside
/// one transaction.
std::string loadsProgram(const std::string &Name, unsigned Loads,
                         unsigned TxnLoads) {
  std::string Src = "name " + Name + "\nthread 0\n";
  for (unsigned I = 0; I < Loads; ++I) {
    if (I == Loads - TxnLoads)
      Src += "  txbegin\n";
    Src += "  load x\n";
  }
  if (TxnLoads)
    Src += "  txend\n";
  return Src;
}

TEST(QueryEngine_, OverCapProgramsAreRefused) {
  // Past kMaxEvents the enumerator skips every shape that does not fit:
  // 71 loads used to answer from no candidates at all, and 60 loads plus
  // a 10-load transaction from its failed-transaction shape alone, both
  // without an error. Past kMaxTxns it would try 2^33 success masks.
  struct Case {
    std::string Source, Cap;
  };
  std::vector<Case> Cases = {
      {loadsProgram("loads71", 71, 0), "(kMaxEvents)"},
      {loadsProgram("loads60+txn10", 70, 10), "(kMaxEvents)"}};
  std::string Txns33 = "name txns33\nthread 0\n";
  for (unsigned I = 0; I <= kMaxTxns; ++I)
    Txns33 += "  txbegin\n  load x\n  txend\n";
  Cases.push_back({Txns33, "(kMaxTxns)"});

  std::string Path = testing::TempDir() + "query_test_over_cap.log";
  ::unlink(Path.c_str());
  std::string Error;
  std::unique_ptr<VerdictStore> Store = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  // An answer stored for the first program before refusals existed: the
  // refusal precedes the store lookup, so it is never served.
  CheckRequest SbReq;
  SbReq.Corpus = "SB";
  SbReq.ModelSpecs = {"x86"};
  CheckResponse Stale = QueryEngine().evaluate(SbReq);
  ASSERT_TRUE(static_cast<bool>(Stale)) << Stale.Error;
  Stale.Name = "loads71";
  const std::vector<std::string> Specs = {"x86"};
  ASSERT_TRUE(Store->append(
      VerdictStore::makeKey("loads71", Cases[0].Source, Specs,
                            /*Explain=*/false, /*WantOutcomes=*/false,
                            /*CandidateCap=*/0),
      toJson(Stale)));

  SessionCache Cache;
  for (SessionCache *C : {static_cast<SessionCache *>(nullptr), &Cache}) {
    QueryEngine Engine({.Cache = C, .Store = Store.get()});
    for (const Case &K : Cases) {
      CheckRequest R;
      R.Source = K.Source;
      R.ModelSpecs = Specs;
      CheckResponse Resp = Engine.evaluate(R);
      EXPECT_FALSE(static_cast<bool>(Resp));
      EXPECT_NE(Resp.Error.find(K.Cap), std::string::npos) << Resp.Error;
      EXPECT_TRUE(Resp.Verdicts.empty());
      EXPECT_EQ(Resp.Candidates, 0u);
      EXPECT_EQ(Resp.Store.Lookups, 0u);
      EXPECT_EQ(Resp.Store.Appends, 0u);
    }
  }
  StoreCounters SC = Store->counters();
  EXPECT_EQ(SC.Hits + SC.Misses, 0u);
  EXPECT_EQ(SC.Appends, 1u); // the seeded answer only
  ::unlink(Path.c_str());
}

TEST(QueryEngine_, RefusesExactlyTheProgramsLintRejects) {
  // Each fixture but the last lints with an error (unbalanced
  // transactions, a `post reg` on a missing thread or register, a
  // dependency on no earlier load); the last declares `loc x` twice, a
  // parse error. With the corpus, which lints clean: the engine refuses a
  // program if and only if it lints with an error, and then says why, at
  // the first error's line (pinned per fixture).
  struct Fixture {
    std::string Name, Source;
    unsigned Line;
  };
  const std::vector<Fixture> Fixtures = {
      {"NestedTxbegin",
       "name NestedTxbegin\nthread 0\n  txbegin\n"
       "  txbegin\n  store x 1\n  txend\n  txend\nthread 1\n  load x\n",
       4},
      {"StrayTxend",
       "name StrayTxend\nthread 0\n  store x 1\n  txend\n"
       "thread 1\n  load x\n",
       4},
      {"OpenTxbegin",
       "name OpenTxbegin\nthread 0\n  txbegin\n"
       "  store x 1\nthread 1\n  load x\n",
       3},
      {"PostRegNoThread",
       "name PostRegNoThread\nthread 0\n  load x\npost reg 5 r0 1\n", 4},
      {"PostRegPastEnd",
       "name PostRegPastEnd\nthread 0\n  load x\npost reg 0 r5 1\n", 4},
      {"DanglingAddr",
       "name DanglingAddr\nthread 0\n  load x\n  store y 1 addr:r5\n", 4},
      {"LocTwice",
       "name LocTwice\nloc x 1\nloc x 2\nthread 0\n"
       "  load x\npost reg 0 r0 2\n",
       3}};
  const std::vector<std::string> Specs = {"x86", "power"};

  std::vector<CheckRequest> Requests;
  std::vector<ParseResult> Parsed;
  for (const Fixture &F : Fixtures) {
    CheckRequest R;
    R.Source = F.Source;
    R.ModelSpecs = Specs;
    Requests.push_back(R);
    Parsed.push_back(parseProgram(F.Source));
  }
  for (const CorpusEntry &E : sharedCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = Specs;
    Requests.push_back(R);
    Parsed.push_back({E.Prog, "", 0});
  }

  // A stale answer stored for every fixture that parses (an SB verdict
  // under its name and source): the refusal precedes the store lookup,
  // so none is ever served.
  std::string Path = testing::TempDir() + "query_test_lint_refusal.log";
  ::unlink(Path.c_str());
  std::string Error;
  std::unique_ptr<VerdictStore> Store = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  CheckRequest SbReq;
  SbReq.Corpus = "SB";
  SbReq.ModelSpecs = Specs;
  CheckResponse Stale = QueryEngine().evaluate(SbReq);
  ASSERT_TRUE(static_cast<bool>(Stale)) << Stale.Error;
  unsigned Seeded = 0;
  for (size_t I = 0; I < Fixtures.size(); ++I) {
    if (!Parsed[I])
      continue;
    Stale.Name = Fixtures[I].Name;
    ASSERT_TRUE(Store->append(
        VerdictStore::makeKey(Stale.Name, Fixtures[I].Source, Specs,
                              /*Explain=*/false, /*WantOutcomes=*/false,
                              /*CandidateCap=*/0),
        toJson(Stale)));
    ++Seeded;
  }
  ASSERT_EQ(Seeded, Fixtures.size() - 1);

  SessionCache Cache;
  for (SessionCache *C : {static_cast<SessionCache *>(nullptr), &Cache})
    for (VerdictStore *S : {static_cast<VerdictStore *>(nullptr),
                            Store.get()}) {
      std::vector<CheckResponse> Rs =
          QueryEngine({.Cache = C, .Store = S}).runAll(Requests);
      ASSERT_EQ(Rs.size(), Requests.size());
      unsigned Refused = 0;
      for (size_t I = 0; I < Rs.size(); ++I) {
        const CheckResponse &R = Rs[I];
        SCOPED_TRACE(I < Fixtures.size() ? Fixtures[I].Name
                                         : Requests[I].Corpus);
        if (I < Fixtures.size()) {
          EXPECT_EQ(R.ErrorLine, Fixtures[I].Line);
        }
        if (!Parsed[I]) {
          EXPECT_EQ(R.Error, "parse error: " + Parsed[I].Error);
          EXPECT_EQ(R.ErrorLine, Parsed[I].ErrorLine);
          EXPECT_TRUE(R.Verdicts.empty());
          ++Refused;
          continue;
        }
        std::string Want;
        unsigned WantLine = 0;
        for (const LintFinding &F : lintProgram(Parsed[I].Prog).Findings) {
          if (F.Severity != LintSeverity::Error)
            continue;
          if (Want.empty())
            WantLine = F.Line;
          else
            Want += "; ";
          Want += F.Message + " [" + std::string(F.Code) + "]";
        }
        EXPECT_EQ(R.Error, Want);
        EXPECT_EQ(R.Error.empty(), !lintProgram(Parsed[I].Prog).hasErrors());
        if (Want.empty()) {
          EXPECT_EQ(R.Verdicts.size(), Specs.size());
          continue;
        }
        ++Refused;
        EXPECT_EQ(R.ErrorLine, WantLine);
        EXPECT_TRUE(R.Verdicts.empty());
        EXPECT_EQ(R.Candidates, 0u);
        EXPECT_EQ(R.Store.Lookups, 0u);
      }
      EXPECT_EQ(Refused, Fixtures.size());
    }
  ::unlink(Path.c_str());
}

TEST(ModelRegistry_, WrapperSpecsResolveAndRoundTrip) {
  // Named presets resolve, arch correctly, and print() round-trips the
  // arch and mask.
  for (const char *Spec : ModelRegistry::wrapperSpecs()) {
    std::string Error;
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(M) << Spec << ": " << Error;
    std::string Printed = ModelRegistry::print(*M);
    std::unique_ptr<MemoryModel> Again = ModelRegistry::parse(Printed);
    ASSERT_TRUE(Again) << Printed;
    EXPECT_EQ(Again->arch(), M->arch());
    unsigned N = static_cast<unsigned>(M->axioms().size());
    EXPECT_EQ(Again->axiomMask().normalized(N),
              M->axiomMask().normalized(N))
        << Spec << " -> " << Printed;
  }

  // The presets keep their branded tokens.
  EXPECT_EQ(ModelRegistry::print(*ModelRegistry::parse("power8")), "power8");

  // Generic "<arch>-impl" wrapper: right arch, one extra axiom, ablatable
  // like any other model.
  std::unique_ptr<MemoryModel> X86Impl = ModelRegistry::parse("x86-impl");
  ASSERT_TRUE(X86Impl);
  EXPECT_EQ(X86Impl->arch(), Arch::X86);
  std::unique_ptr<MemoryModel> X86 = ModelRegistry::parse("x86");
  EXPECT_EQ(X86Impl->axioms().size(), X86->axioms().size() + 1);
  std::unique_ptr<MemoryModel> Ablated =
      ModelRegistry::parse("power8/-TxnOrder");
  ASSERT_TRUE(Ablated);
  EXPECT_FALSE(Ablated->axiomEnabled("TxnOrder"));
  EXPECT_EQ(ModelRegistry::print(*Ablated), "power8/-TxnOrder");

  // Un-doing the conservatism gives back the architecture's behaviour.
  std::unique_ptr<MemoryModel> Undone =
      ModelRegistry::parse("power8/-NoLoadBuffering(impl)");
  ASSERT_TRUE(Undone);
  EXPECT_FALSE(Undone->axiomEnabled("NoLoadBuffering(impl)"));
}

TEST(QueryEngine_, WrapperVerdictsMatchDirectImplModel) {
  // The "power8" spec through the engine equals the hand-built ImplModel
  // loop the benches used: LB-shaped tests flip from allowed to
  // forbidden, everything else is unchanged.
  std::unique_ptr<MemoryModel> Power = ModelRegistry::parse("power");
  std::unique_ptr<MemoryModel> P8 = ModelRegistry::parse("power8");
  unsigned LbFlips = 0;
  for (const CorpusEntry &E : standardCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = {"power", "power8"};
    CheckResponse Resp = QueryEngine().evaluate(R);
    ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.Error;
    EXPECT_EQ(Resp.Verdicts[0].Allowed,
              postconditionReachable(E.Prog, *Power))
        << E.Name;
    EXPECT_EQ(Resp.Verdicts[1].Allowed, postconditionReachable(E.Prog, *P8))
        << E.Name;
    LbFlips += Resp.Verdicts[0].Allowed && !Resp.Verdicts[1].Allowed;
  }
  // The conservatism must bite somewhere (LB is allowed by Power+TM and
  // invisible on the silicon).
  EXPECT_GT(LbFlips, 0u);
}

} // namespace
