//===- server_test.cpp - The long-lived query server -----------------------------==//
///
/// Drives the resident server (server/QueryServer.h) in-process across
/// multi-batch sessions: cache hits on repeated sources and spec
/// re-resolutions, malformed batches answered without process death,
/// byte-determinism of served documents against one-shot engine runs
/// (across jobs counts and across batches on one session), pool reuse
/// over many batches, and sessions over a one-connection multiplexer:
/// on a Unix socket, and on stdin/stdout-style fds through `serveStdio`.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "litmus/Library.h"
#include "litmus/Parser.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "query/SessionCache.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"
#include "server/Transport.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tmw;

namespace {

const char *SbSource = R"(name SB-inline
thread 0
  store x 1
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)";

std::vector<CheckRequest> sampleBatch() {
  std::vector<CheckRequest> Requests;
  CheckRequest A;
  A.Source = SbSource;
  A.ModelSpecs = {"x86", "power/-TxnOrder", "power8"};
  A.Explain = true;
  A.WantOutcomes = true;
  Requests.push_back(A);
  CheckRequest B;
  B.Corpus = "MP";
  B.WantOutcomes = true;
  Requests.push_back(B);
  return Requests;
}

/// The reference bytes: what a one-shot engine run (litmus_tool --json's
/// path) prints for the same requests.
std::string oneShot(const std::vector<CheckRequest> &Requests,
                    unsigned Jobs = 1) {
  return responsesToJson(QueryEngine({Jobs}).runAll(Requests));
}

/// Serve \p Pieces, in order, through `serveStdio`: a writer thread feeds
/// them into a pipe as its input, and a temp file takes its output, which
/// is returned. Pieces may repeat one buffer, so a test can stream a line
/// past the line bound without holding it.
std::string serveStdioFed(QueryServer &S,
                          const std::vector<std::string_view> &Pieces) {
  std::signal(SIGPIPE, SIG_IGN); // as tmw_serve does
  int In[2] = {-1, -1};
  EXPECT_EQ(::pipe(In), 0);
  std::FILE *Out = std::tmpfile();
  EXPECT_NE(Out, nullptr);
  std::thread Writer([&] {
    for (std::string_view P : Pieces)
      while (!P.empty()) {
        ssize_t N = ::write(In[1], P.data(), P.size());
        if (N < 0 && errno == EINTR)
          continue;
        if (N < 0) { // the server stopped reading, as it may
          ::close(In[1]);
          return;
        }
        P.remove_prefix(static_cast<size_t>(N));
      }
    ::close(In[1]);
  });
  EXPECT_EQ(server::serveStdio(S, In[0], ::fileno(Out)), 0);
  ::close(In[0]); // a writer the server stopped reading gets EPIPE
  Writer.join();
  std::rewind(Out);
  std::string Got;
  char Buf[65536];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), Out)) > 0;)
    Got.append(Buf, N);
  std::fclose(Out);
  return Got;
}

TEST(QueryServer, MatchesOneShotBytesAcrossJobsAndBatches) {
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Line = requestsToJsonLine(Requests);
  std::string Reference = oneShot(Requests);
  ASSERT_EQ(Reference, oneShot(Requests, 4)); // engine side is jobs-stable

  for (unsigned Jobs : {1u, 2u, 7u}) {
    QueryServer S({Jobs});
    // Repeated batches on one resident session: identical bytes every
    // time — first batch (cold caches) included.
    for (int Batch = 0; Batch < 3; ++Batch)
      EXPECT_EQ(S.serveLine(Line), Reference)
          << "jobs " << Jobs << " batch " << Batch;
  }
}

TEST(QueryServer, SessionCacheHitsOnRepeatedWork) {
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());

  S.serveLine(Line);
  ServerStats After1 = S.stats();
  // First batch: the inline source parses once (miss), and each of the
  // two spec lists (three specs; the empty default list) is built once
  // (misses), nothing can hit yet.
  EXPECT_EQ(After1.Cache.ProgramMisses, 1u);
  EXPECT_EQ(After1.Cache.ProgramHits, 0u);
  EXPECT_EQ(After1.Cache.ProgramsCached, 1u);
  EXPECT_EQ(After1.Cache.SpecSetMisses, 2u);
  EXPECT_EQ(After1.Cache.SpecSetHits, 0u);
  EXPECT_EQ(After1.Cache.SpecSetsCached, 2u);

  S.serveLine(Line);
  ServerStats After2 = S.stats();
  // Second batch: same source → program cache hit, no new parse; same
  // spec lists → resident sets, nothing resolved or compiled again.
  EXPECT_EQ(After2.Cache.ProgramMisses, 1u);
  EXPECT_EQ(After2.Cache.ProgramHits, 1u);
  EXPECT_EQ(After2.Cache.SpecSetMisses, 2u);
  EXPECT_EQ(After2.Cache.SpecSetHits, 2u);
  EXPECT_EQ(After2.Cache.SpecSetsCached, 2u);
  EXPECT_EQ(After2.Batches, 2u);
  EXPECT_EQ(After2.Requests, 4u);
}

TEST(QueryServer, MalformedBatchAnswersWithoutDying) {
  QueryServer S({2});
  std::string Good = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());

  // A broken line answers with a schema'd error document...
  std::string ErrDoc = S.serveLine("{\"schema\": \"tmw-query-batch-v1\", ");
  EXPECT_NE(ErrDoc.find("\"schema\": \"tmw-query-verdicts-v1\""),
            std::string::npos);
  EXPECT_NE(ErrDoc.find("\"error\": \"batch parse error: "),
            std::string::npos);
  EXPECT_NE(ErrDoc.find("\"responses\": [\n ]"), std::string::npos);
  // ... and the session keeps serving correct bytes afterwards.
  EXPECT_EQ(S.serveLine(Good), Reference);
  EXPECT_EQ(S.stats().BadBatches, 1u);

  // Same on stdin/stdout: good, bad, blank, good — the bad line's
  // document carries exactly the parser's diagnostic.
  std::vector<CheckRequest> Sink;
  std::string ParseError;
  ASSERT_FALSE(requestsFromJson("not json", Sink, &ParseError));
  std::string Input = Good + "\nnot json\n   \n" + Good + "\n";
  std::string Expect = Reference +
                       batchErrorToJson("batch parse error: " + ParseError) +
                       Reference;
  EXPECT_EQ(serveStdioFed(S, {Input}), Expect);
  EXPECT_EQ(S.stats().BadBatches, 2u);
}

TEST(QueryServer, StdioLineOverMaximumAnswersAndStops) {
  // Stdin/stdout is one multiplexer connection at the default bound: a
  // line past server::kMaxBatchLineBytes answers one error document and
  // ends the input, since framing cannot resync. The line before, padded
  // past server::kLineReserveBytes, is served; the one after is never
  // read.
  QueryServer S({1});
  std::string Good = requestsToJsonLine(sampleBatch()) +
                     std::string(server::kLineReserveBytes, ' ') + "\n";
  std::string Filler(1 << 16, 'x');
  std::vector<std::string_view> Pieces = {Good};
  for (size_t N = 0; N <= server::kMaxBatchLineBytes; N += Filler.size())
    Pieces.push_back(Filler);
  Pieces.push_back("\n");
  Pieces.push_back(Good);
  EXPECT_EQ(serveStdioFed(S, Pieces),
            oneShot(sampleBatch()) +
                batchErrorToJson("batch line exceeds maximum length"));
  EXPECT_EQ(S.stats().Batches, 1u);
  EXPECT_EQ(S.stats().BadBatches, 1u);
}

TEST(QueryServer, RequestErrorsAreResponsesNotDeath) {
  // Errors *inside* a well-formed batch surface per response, exactly as
  // the one-shot engine reports them.
  std::vector<CheckRequest> Requests;
  CheckRequest Bad;
  Bad.Name = "bad-spec";
  Bad.Corpus = "SB";
  Bad.ModelSpecs = {"not-a-model"};
  Requests.push_back(Bad);
  CheckRequest Unparsable;
  Unparsable.Name = "bad-dsl";
  Unparsable.Source = "thread 0\n  fetch x\n";
  Requests.push_back(Unparsable);
  CheckRequest Fine;
  Fine.Corpus = "SB";
  Requests.push_back(Fine);
  // Past kMaxEvents: refused, never answered from a partial candidate set.
  CheckRequest OverCap;
  OverCap.Name = "loads71";
  OverCap.Source = "name loads71\nthread 0\n";
  for (int I = 0; I < 71; ++I)
    OverCap.Source += "  load x\n";
  Requests.push_back(OverCap);
  // No well-formed candidate (a lock region closed by txunlock).
  CheckRequest Unbalanced;
  Unbalanced.Name = "lockprobe";
  Unbalanced.Source = "name lockprobe\nthread 0\n  lock\n  store x 1\n"
                      "  txunlock\n";
  Requests.push_back(Unbalanced);
  Requests.push_back(Fine);
  // An ill-formed abort shape beside a well-formed success shape, in
  // both nestings of a lock region and a transaction.
  CheckRequest AbortCut;
  AbortCut.Name = "abort-cut";
  AbortCut.Source = "name AbortLeavesLockHeld\nloc ok 1\nthread 0\n  lock\n"
                    "  txbegin\n  store x 1\n  unlock\n  txend\n"
                    "thread 1\n  load x\npost mem ok 0\n";
  Requests.push_back(AbortCut);
  CheckRequest TxnCut;
  TxnCut.Name = "txn-cut";
  TxnCut.Source = "name TxnCutsLockRegion\nloc ok 1\nthread 0\n  txbegin\n"
                  "  lock\n  store x 1\n  txend\n  unlock\n"
                  "thread 1\n  load x\npost mem ok 0\n";
  Requests.push_back(TxnCut);
  // A thread index past the event cap, between two good requests: a parse
  // error at its line, not a million empty threads per success mask.
  Requests.push_back(Fine);
  CheckRequest HugeThread;
  HugeThread.Name = "huge-thread";
  HugeThread.Source = "name HugeThread\nthread 1000000\n  store x 1\n";
  Requests.push_back(HugeThread);
  Requests.push_back(Fine);

  QueryServer S({2});
  std::string Served = S.serveLine(requestsToJsonLine(Requests));
  EXPECT_EQ(Served, oneShot(Requests));

  std::vector<CheckResponse> Back;
  std::string Error;
  ASSERT_TRUE(responsesFromJson(Served, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 11u);
  EXPECT_FALSE(Back[0].Error.empty());
  EXPECT_FALSE(Back[1].Error.empty());
  EXPECT_GT(Back[1].ErrorLine, 0u); // DSL parse errors carry the line
  EXPECT_TRUE(Back[2].Error.empty());

  ParseResult Parsed = parseProgram(OverCap.Source);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.Error;
  std::vector<LintFinding> Caps = capFindings(computeFacts(Parsed.Prog));
  ASSERT_EQ(Caps.size(), 1u);
  EXPECT_EQ(Caps[0].Code, "too-many-events");
  EXPECT_EQ(Back[3].Error, Caps[0].Message + " [too-many-events]");
  EXPECT_TRUE(Back[3].Verdicts.empty());

  EXPECT_EQ(Back[4].Error,
            "region opened by lock is closed by txunlock [unbalanced-lock]");
  EXPECT_EQ(Back[4].ErrorLine, 5u);
  EXPECT_TRUE(Back[4].Verdicts.empty());
  EXPECT_TRUE(Back[5].Error.empty()) << Back[5].Error;
  EXPECT_FALSE(Back[5].Verdicts.empty());
  for (size_t I : {6u, 7u}) {
    EXPECT_NE(Back[I].Error.find("so an abort "), std::string::npos)
        << Back[I].Error;
    EXPECT_NE(Back[I].Error.find("[unbalanced-lock]"), std::string::npos)
        << Back[I].Error;
    EXPECT_EQ(Back[I].ErrorLine, 7u);
    EXPECT_EQ(Back[I].Candidates, 0u);
    EXPECT_TRUE(Back[I].Verdicts.empty());
  }
  EXPECT_EQ(Back[9].Error,
            "parse error: thread index 1000000 out of range (0..63)");
  EXPECT_EQ(Back[9].ErrorLine, 2u);
  EXPECT_TRUE(Back[9].Verdicts.empty());
  for (size_t I : {8u, 10u}) {
    EXPECT_TRUE(Back[I].Error.empty()) << Back[I].Error;
    EXPECT_FALSE(Back[I].Verdicts.empty());
  }
}

TEST(QueryServer, NulInNumberIsAParseErrorAtItsLine) {
  // A JSON `\u0000` puts a NUL byte in a source. The number around it is
  // malformed, not read up to the NUL (`store x 1` and thread 0 once).
  QueryServer S({2});
  std::string Served = S.serveLine(
      R"({"schema": "tmw-query-batch-v1", "requests": [)"
      R"({"name": "nul-store", "source": )"
      R"("thread 0\n  store x 1\u0000junk\npost mem x 1\n", "models": ["x86"]}, )"
      R"({"name": "nul-thread", "source": "thread 0\u00007\n  store x 1\n", )"
      R"("models": ["x86"]}]})");
  std::vector<CheckResponse> Back;
  std::string Error;
  ASSERT_TRUE(responsesFromJson(Served, Back, &Error)) << Error;
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(Back[0].Error,
            "parse error: store requires a location and a value");
  EXPECT_EQ(Back[0].ErrorLine, 2u);
  EXPECT_EQ(Back[0].Candidates, 0u);
  EXPECT_TRUE(Back[0].Verdicts.empty());
  EXPECT_EQ(Back[1].Error, "parse error: bad thread index");
  EXPECT_EQ(Back[1].ErrorLine, 1u);
  EXPECT_TRUE(Back[1].Verdicts.empty());
}

TEST(QueryServer, PoolSurvivesManyBatches) {
  // The resident pool (persistent threads + WorkQueue + arenas) must
  // park and wake cleanly batch after batch, including empty and
  // bigger-than-pool batches.
  QueryServer S({3});
  std::string Reference = oneShot(sampleBatch());
  std::string Line = requestsToJsonLine(sampleBatch());
  for (int Batch = 0; Batch < 20; ++Batch)
    ASSERT_EQ(S.serveLine(Line), Reference) << "batch " << Batch;

  // Empty batch: a schema'd document with zero responses.
  std::vector<CheckRequest> Empty;
  std::string EmptyDoc = S.serveLine(requestsToJsonLine(Empty));
  EXPECT_EQ(EmptyDoc, responsesToJson(std::vector<CheckResponse>{}));

  // A batch wider than the pool exercises stealing on the resident pool.
  std::vector<CheckRequest> Wide;
  for (const CorpusEntry &E : sharedCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    Wide.push_back(std::move(R));
  }
  EXPECT_EQ(S.serveLine(requestsToJsonLine(Wide)), oneShot(Wide, 3));
}

TEST(QueryServer, EvictionKeepsServing) {
  // A tiny program cache bound forces eviction, and a bound of 0 keeps no
  // parses at all; verdicts and bytes are unaffected either way
  // (content-addressed entries just re-parse).
  std::vector<std::string> Lines;
  for (int V = 0; V < 4; ++V) {
    CheckRequest R;
    R.Name = "prog-" + std::to_string(V);
    R.Source = std::string("name P") + std::to_string(V) +
               "\nthread 0\n  store x " + std::to_string(V + 1) +
               "\n  load y\npost reg 0 r1 0\n";
    R.ModelSpecs = {"x86"};
    Lines.push_back(requestsToJsonLine(std::vector<CheckRequest>{R}));
  }
  for (size_t Bound : {0u, 2u}) {
    ServerOptions Opts;
    Opts.Jobs = 1;
    Opts.MaxCachedPrograms = Bound;
    QueryServer S(Opts);
    std::vector<std::string> Golden;
    for (const std::string &L : Lines)
      Golden.push_back(S.serveLine(L));
    for (int Round = 0; Round < 3; ++Round)
      for (size_t I = 0; I < Lines.size(); ++I)
        ASSERT_EQ(S.serveLine(Lines[I]), Golden[I]) << "bound " << Bound;
    SessionCache::Stats St = S.stats().Cache;
    if (Bound == 0) {
      EXPECT_EQ(St.ProgramsCached, 0u);
      EXPECT_EQ(St.ProgramEvictions, 0u);
      EXPECT_EQ(St.ProgramHits, 0u);
    } else {
      EXPECT_GT(St.ProgramEvictions, 0u);
    }
  }
}

/// One socket session over a one-connection multiplexer: connect
/// (retrying while the loop binds), send \p Payload, half-close, and
/// return every byte the server answered up to EOF.
std::string socketRoundTrip(QueryServer &S, const std::string &Payload,
                            const char *Name) {
  std::string Path = testing::TempDir() + Name;
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  server::ConnectionMultiplexer Mux(S, Opts);
  std::thread Loop([&] { Mux.serve(Path); });
  int Fd = -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  EXPECT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (int Try = 0; Try < 200; ++Try) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      break;
    ::close(Fd);
    Fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(Fd, 0) << "could not connect to " << Path;
  std::string Got;
  if (Fd >= 0) {
    EXPECT_EQ(::send(Fd, Payload.data(), Payload.size(), 0),
              static_cast<ssize_t>(Payload.size()));
    EXPECT_EQ(::shutdown(Fd, SHUT_WR), 0);
    char Buf[65536];
    for (;;) {
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Got.append(Buf, static_cast<size_t>(N));
    }
    ::close(Fd);
  } else {
    Mux.requestStop(); // nobody will connect: don't wait for one
  }
  Loop.join();
  return Got;
}

TEST(QueryServer, UnixSocketRoundTrip) {
  // Two batches on one connection, read back to EOF as the concatenated
  // one-shot documents. The second is padded past kLineReserveBytes, so
  // it is read into a buffer that reserved the line bound.
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  std::string Padded = Line + std::string(server::kLineReserveBytes, ' ');
  EXPECT_EQ(socketRoundTrip(S, Line + "\n" + Padded + "\n",
                            "tmw_server_test.sock"),
            Reference + Reference);
  EXPECT_EQ(S.stats().Batches, 2u);
}

TEST(QueryServer, BlankLinesOnSocketAreSkipped) {
  // Empty and whitespace-only NDJSON lines on the wire — leading,
  // between batches, trailing — produce no documents at all.
  QueryServer S({2});
  std::string Line = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  std::string Got = socketRoundTrip(
      S, "\n  \t\r\n" + Line + "\n\n" + Line + "\n   \n",
      "tmw_blank_lines.sock");
  EXPECT_EQ(Got, Reference + Reference);
  EXPECT_EQ(S.stats().Batches, 2u);
}

TEST(QueryServer, OversizedSingleLineBatch) {
  // One batch line bigger than the transport's 64 KiB read buffer: the
  // frame spans several reads and must reassemble to the exact one-shot
  // bytes. Repeated identical requests keep the evaluation cheap (one
  // parse, then cache hits) while the *line* stays huge.
  std::vector<CheckRequest> Requests;
  for (int I = 0; I < 400; ++I) {
    CheckRequest R;
    R.Source = SbSource;
    R.ModelSpecs = {"x86"};
    Requests.push_back(R);
  }
  std::string Line = requestsToJsonLine(Requests);
  ASSERT_GT(Line.size(), 65536u) << "line must exceed one read buffer";

  QueryServer S({2});
  std::string Got = socketRoundTrip(S, Line + "\n", "tmw_oversized.sock");
  EXPECT_EQ(Got, oneShot(Requests));
  EXPECT_EQ(S.stats().Requests, 400u);
}

TEST(QueryServer, ErrorDocumentThenValidBatchesOnSameConnection) {
  // A malformed line mid-session answers with the error document and the
  // connection keeps serving correct bytes — before and after.
  QueryServer S({2});
  std::string Good = requestsToJsonLine(sampleBatch());
  std::string Reference = oneShot(sampleBatch());
  std::vector<CheckRequest> Sink;
  std::string ParseError;
  ASSERT_FALSE(requestsFromJson("{\"oops\": ", Sink, &ParseError));
  std::string Got = socketRoundTrip(
      S, Good + "\n{\"oops\": \n" + Good + "\n" + Good + "\n",
      "tmw_error_recovery.sock");
  EXPECT_EQ(Got, Reference +
                     batchErrorToJson("batch parse error: " + ParseError) +
                     Reference + Reference);
  EXPECT_EQ(S.stats().BadBatches, 1u);
  EXPECT_EQ(S.stats().Batches, 3u);
}

TEST(SessionCache, ContentAddressedAndFailureCaching) {
  SessionCache C;
  auto A = C.program("thread 0\n  load x\n");
  auto B = C.program("thread 0\n  load x\n");
  EXPECT_EQ(A.get(), B.get()); // same source → same entry
  EXPECT_TRUE(static_cast<bool>(*A));

  // Failures are cached too (a resubmitted bad program re-parses zero
  // times), and report their line.
  auto Bad1 = C.program("thread 0\n  fetch x\n");
  auto Bad2 = C.program("thread 0\n  fetch x\n");
  EXPECT_EQ(Bad1.get(), Bad2.get());
  EXPECT_FALSE(static_cast<bool>(*Bad1));
  EXPECT_EQ(Bad1->ErrorLine, 2u);

  SessionCache::Stats St = C.stats();
  EXPECT_EQ(St.ProgramHits, 2u);
  EXPECT_EQ(St.ProgramMisses, 2u);

  // Entries survive clear() while referenced (cache-safe ownership).
  C.clear();
  EXPECT_TRUE(static_cast<bool>(*A));
  EXPECT_EQ(A->Prog.Threads.size(), 1u);

  // Spec sets: one list → one resident set, whose entry i holds the
  // model, canonical spelling and plan spec of the list's entry i.
  const std::vector<std::string> Specs = {"x86", "POWER/-txnorder"};
  bool Hit = true;
  auto S1 = C.specs(Specs, nullptr, &Hit);
  ASSERT_TRUE(S1);
  EXPECT_FALSE(Hit);
  auto S2 = C.specs(Specs, nullptr, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(S1.get(), S2.get());
  EXPECT_EQ(S1->Canonical,
            (std::vector<std::string>{"x86", "power/-TxnOrder"}));
  ASSERT_EQ(S1->Models.size(), 2u);
  EXPECT_EQ(S1->Plan.numSpecs(), 2u);
  for (size_t I = 0; I < 2; ++I)
    EXPECT_EQ(S1->Canonical[I], ModelRegistry::print(*S1->Models[I]));

  // The empty list is the six default architectures.
  auto Defaults = C.specs({});
  ASSERT_TRUE(Defaults);
  ASSERT_EQ(Defaults->Canonical.size(), ModelRegistry::allArchs().size());
  for (size_t I = 0; I < Defaults->Canonical.size(); ++I)
    EXPECT_EQ(Defaults->Canonical[I],
              ModelRegistry::archSpecName(ModelRegistry::allArchs()[I]));

  // The first bad spec fails the list, with the registry's message; the
  // failure is not cached.
  std::string RegistryError;
  ASSERT_EQ(ModelRegistry::parse("warp9", &RegistryError), nullptr);
  for (int Lookup = 0; Lookup < 2; ++Lookup) {
    std::string Error;
    EXPECT_EQ(C.specs({"x86", "warp9", "z80"}, &Error), nullptr);
    EXPECT_EQ(Error, "model spec 'warp9': " + RegistryError);
  }
  St = C.stats();
  EXPECT_EQ(St.SpecSetHits, 1u);
  EXPECT_EQ(St.SpecSetMisses, 4u);
  EXPECT_EQ(St.SpecSetsCached, 2u);
}

TEST(SessionCache, OverflowEvictsOnlyLeastRecentHalf) {
  // The bounded program map drops only its least-recently-touched half on
  // overflow (not the whole map): the hot working set survives a churn of
  // one-off sources, and the accounting says exactly what went.
  SessionCache C(/*MaxPrograms=*/8);
  auto Src = [](int V) {
    return "name P" + std::to_string(V) + "\nthread 0\n  store x " +
           std::to_string(V + 1) + "\n  load y\npost reg 0 r1 0\n";
  };
  for (int V = 0; V < 8; ++V)
    C.program(Src(V));
  // Touch the newer half so recency diverges from insertion order.
  for (int V = 4; V < 8; ++V)
    C.program(Src(V));
  SessionCache::Stats St = C.stats();
  ASSERT_EQ(St.ProgramsCached, 8u);
  ASSERT_EQ(St.ProgramEvictions, 0u);

  // The 9th insert overflows: exactly the stale half (P0..P3) goes.
  C.program(Src(8));
  St = C.stats();
  EXPECT_EQ(St.ProgramEvictions, 1u);
  EXPECT_EQ(St.ProgramsEvicted, 4u);
  EXPECT_EQ(St.ProgramsCached, 5u); // P4..P7 + P8

  // The recently-touched half still hits; the evicted half re-parses.
  uint64_t Misses = St.ProgramMisses, Hits = St.ProgramHits;
  for (int V = 4; V < 9; ++V)
    C.program(Src(V));
  St = C.stats();
  EXPECT_EQ(St.ProgramMisses, Misses);
  EXPECT_EQ(St.ProgramHits, Hits + 5);
  C.program(Src(0));
  EXPECT_EQ(C.stats().ProgramMisses, Misses + 1);
}

TEST(QueryEngine, CachedRunsMatchUncachedBytes) {
  // BatchOptions::Cache is verdict-neutral: same requests, same bytes,
  // jobs and cache state notwithstanding.
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Reference = oneShot(Requests);
  SessionCache Cache;
  for (unsigned Jobs : {1u, 4u}) {
    BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Cache = &Cache;
    EXPECT_EQ(responsesToJson(QueryEngine(Opts).runAll(Requests)),
              Reference)
        << "jobs " << Jobs;
  }
  EXPECT_GT(Cache.stats().ProgramHits + Cache.stats().SpecSetHits, 0u);
}

} // namespace
