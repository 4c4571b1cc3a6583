//===- transport_test.cpp - Protocol fuzz + concurrency for the transports ------==//
///
/// The differential protocol harness for the socket transport: NDJSON
/// frames torn at every byte boundary, batches coalesced into one
/// write(), writes interleaved across rival connections — each pinned
/// byte-for-byte against the one-shot engine (`litmus_tool --json`'s
/// bytes). Plus the concurrency contract of the poll multiplexer
/// (server/Multiplexer.h): N client threads over one server with no
/// intermixed verdict streams, slow readers held by backpressure without
/// disturbing rivals, mid-batch disconnects cancelled cleanly, and
/// shutdown with clients still connected. The fd transports around it
/// (server/Transport.h): `serveStdio` and the `runClient` client answer
/// each line before the next is written, and a dead output cancels the
/// batches in flight. The EINTR test pins that the
/// loop restarts on signal delivery — idle in poll and mid-frame —
/// instead of dropping a connection; the handler is installed via
/// sigaction with no SA_RESTART, so the syscalls genuinely return EINTR.
///
/// Runs under the TSan CI lane: the loop thread, pool workers, and
/// client threads here race for real.
///
//===----------------------------------------------------------------------===//

#include "litmus/Library.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"
#include "server/Transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace tmw;

namespace {

// --- plumbing --------------------------------------------------------------

/// Connect to \p Path, retrying while the server binds (EINTR-safe).
int connectRetry(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (int Try = 0; Try < 400; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    int Rc;
    do {
      Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    } while (Rc < 0 && errno == EINTR);
    if (Rc == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool sendAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Read until EOF (EINTR-safe).
std::string recvAll(int Fd) {
  std::string Got;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break;
    Got.append(Buf, static_cast<size_t>(N));
  }
  return Got;
}

/// Read exactly \p Want bytes (EINTR-safe); shorter on EOF/error.
std::string recvExactly(int Fd, size_t Want) {
  std::string Got;
  char Buf[65536];
  while (Got.size() < Want) {
    ssize_t N = ::read(Fd, Buf, std::min(sizeof(Buf), Want - Got.size()));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break;
    Got.append(Buf, static_cast<size_t>(N));
  }
  return Got;
}

/// Read from \p Fd until \p Want bytes arrived, EOF, or \p Timeout
/// passed; whatever arrived.
std::string recvFor(int Fd, size_t Want, std::chrono::milliseconds Timeout) {
  auto Deadline = std::chrono::steady_clock::now() + Timeout;
  std::string Got;
  char Buf[65536];
  while (Got.size() < Want) {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        Deadline - std::chrono::steady_clock::now());
    pollfd P{Fd, POLLIN, 0};
    if (Left.count() <= 0 || ::poll(&P, 1, static_cast<int>(Left.count())) == 0)
      break;
    ssize_t N = ::read(Fd, Buf, std::min(sizeof(Buf), Want - Got.size()));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got.append(Buf, static_cast<size_t>(N));
  }
  return Got;
}

/// A temp file holding \p Data, positioned at its start.
std::FILE *tempFileWith(std::string_view Data) {
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  EXPECT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fflush(F);
  std::rewind(F);
  return F;
}

/// Everything in \p F, which is closed.
std::string drainFile(std::FILE *F) {
  std::rewind(F);
  std::string Got;
  char Buf[65536];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Got.append(Buf, N);
  std::fclose(F);
  return Got;
}

/// `runClient` from a temp file holding \p Input to a temp file, whose
/// contents land in \p Got; the client's exit status.
int runClientOn(const std::string &Path, std::string_view Input,
                std::string &Got) {
  std::FILE *In = tempFileWith(Input);
  std::FILE *Out = std::tmpfile();
  int Exit = server::runClient(Path, ::fileno(In), ::fileno(Out));
  std::fclose(In);
  Got = drainFile(Out);
  return Exit;
}

/// One multiplexer serving on a fresh socket path, loop on its own
/// thread. `finish()` joins (for AcceptLimit-bounded runs), `stop()`
/// asks the loop down first.
struct MuxHarness {
  QueryServer Server;
  server::ConnectionMultiplexer Mux;
  std::string Path;
  std::thread Loop;
  int Exit = -1;

  MuxHarness(unsigned Jobs, server::MuxOptions Opts, const std::string &Name)
      : Server({Jobs}), Mux(Server, Opts),
        Path(testing::TempDir() + Name) {
    Loop = std::thread([this] { Exit = Mux.serve(Path); });
  }
  ~MuxHarness() {
    if (Loop.joinable())
      stop();
  }
  void finish() { Loop.join(); }
  void stop() {
    Mux.requestStop();
    Loop.join();
  }
};

// --- fixtures --------------------------------------------------------------

/// A one-request batch kept deliberately small, so "split at every byte
/// boundary" stays cheap even under TSan.
std::vector<CheckRequest> tinyBatch() {
  CheckRequest R;
  R.Corpus = "SB";
  R.ModelSpecs = {"x86"};
  return {R};
}

const char *clientSourceFmt = R"(name C%u
thread 0
  store x %u
  load y
thread 1
  store y 1
  load x
post reg 0 r1 0
post reg 1 r1 0
)";

/// A distinct program per client: verdict documents of rival clients can
/// never be byte-equal, so any cross-connection intermixing or swap is a
/// guaranteed mismatch, not a silent coincidence.
std::vector<CheckRequest> clientBatch(unsigned Client) {
  char Source[256];
  std::snprintf(Source, sizeof(Source), clientSourceFmt, Client, Client + 1);
  CheckRequest R;
  R.Name = "client-" + std::to_string(Client);
  R.Source = Source;
  R.ModelSpecs = {"x86", "power8"};
  R.WantOutcomes = true;
  CheckRequest B;
  B.Corpus = "MP";
  return {R, B};
}

std::vector<CheckRequest> sampleBatch() {
  CheckRequest R;
  R.Corpus = "SB";
  R.ModelSpecs = {"x86", "power/-TxnOrder", "power8"};
  R.Explain = true;
  R.WantOutcomes = true;
  CheckRequest B;
  B.Corpus = "MP";
  B.WantOutcomes = true;
  return {R, B};
}

/// The reference bytes: a one-shot engine run — the exact path
/// `litmus_tool --json` prints through.
std::string oneShot(const std::vector<CheckRequest> &Requests) {
  return responsesToJson(QueryEngine({1}).runAll(Requests));
}

// --- framing: torn and coalesced NDJSON ------------------------------------

TEST(Transport, TornFramesAtEveryByteBoundary) {
  std::string Line = requestsToJsonLine(tinyBatch());
  std::string Reference = oneShot(tinyBatch());
  ASSERT_GT(Line.size(), 8u);

  MuxHarness H(2, {}, "tmw_torn.sock");
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);

  // Every split point: prefix, a beat (so the server's read really sees
  // a torn frame, not a coalesced one), then the rest. Each split is one
  // batch on the one connection.
  for (size_t Split = 0; Split < Line.size(); ++Split) {
    ASSERT_TRUE(sendAll(Fd, std::string_view(Line).substr(0, Split)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(
        sendAll(Fd, std::string(Line.substr(Split)) + "\n"));
  }
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  std::string Got = recvAll(Fd);
  ::close(Fd);
  H.stop();
  EXPECT_EQ(H.Exit, 0);

  std::string Expect;
  for (size_t Split = 0; Split < Line.size(); ++Split)
    Expect += Reference;
  EXPECT_EQ(Got, Expect) << "some torn frame produced different bytes";
}

TEST(Transport, CoalescedBatchesAndTrailingLineInOneWrite) {
  std::string Line = requestsToJsonLine(tinyBatch());
  std::string Reference = oneShot(tinyBatch());

  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  MuxHarness H(2, Opts, "tmw_coalesced.sock");
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);

  // One write carrying: two complete batches, blank/whitespace lines to
  // skip, and a final *unterminated* batch that must still answer at EOF
  // (the trailing-line rule).
  std::string Payload = Line + "\n\n \t\r\n" + Line + "\n" + Line;
  ASSERT_TRUE(sendAll(Fd, Payload));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  std::string Got = recvAll(Fd);
  ::close(Fd);
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(Got, Reference + Reference + Reference);
}

TEST(Transport, EmptyBatchAnsweredEvenAtEof) {
  // An empty batch (`[]`) completes inline: its document travels through
  // the worker mailbox with no in-flight (Live) entry. A batch framed in
  // the same dispatch that sees the close must not let the connection be
  // torn down before the mailbox drains — that silently drops the
  // response the one-shot engine would have printed.
  std::string Reference = oneShot(std::vector<CheckRequest>{});
  ASSERT_FALSE(Reference.empty());

  server::MuxOptions Opts;
  Opts.AcceptLimit = 2;
  MuxHarness H(2, Opts, "tmw_emptybatch.sock");

  // Terminated `[]\n`, then an immediate half-close.
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, "[]\n"));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  EXPECT_EQ(recvAll(Fd), Reference);
  ::close(Fd);

  // Unterminated trailing `[]`: the line is only framed by EOF itself,
  // so the batch submits in the very dispatch that marks the connection
  // read-closed — the deterministic shape of the lost-response race.
  Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, "[]"));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  EXPECT_EQ(recvAll(Fd), Reference);
  ::close(Fd);

  H.finish();
  EXPECT_EQ(H.Exit, 0);
}

TEST(Transport, UnterminatedGiantLineRejectedNotBuffered) {
  // A client streaming bytes with no newline past the input high-water
  // mark gets an error document and a teardown — the server must never
  // buffer such a line without bound.
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  Opts.MaxLineBytes = 4096;
  MuxHarness H(2, Opts, "tmw_giantline.sock");

  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  // The send may fail partway once the server stops reading — that is
  // the guard working, not a test failure.
  (void)sendAll(Fd, std::string(64 * 1024, 'x'));
  EXPECT_EQ(recvAll(Fd),
            batchErrorToJson("batch line exceeds maximum length"));
  ::close(Fd);
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(H.Server.stats().BadBatches, 1u);
  ASSERT_EQ(H.Mux.stats().Connections.size(), 1u);
  EXPECT_EQ(H.Mux.stats().Connections[0].BadBatches, 1u);
  EXPECT_FALSE(H.Mux.stats().Connections[0].Aborted);
}

TEST(Transport, OverLongCompleteLineRefusedUnparsed) {
  // A line over the bound is refused even when its newline arrives in
  // the same readable event, so it is framed complete before any bound
  // check on the unterminated rest could see it: never parsed, and the
  // batch after it never answered, in every run.
  constexpr unsigned Runs = 20;
  server::MuxOptions Opts;
  Opts.AcceptLimit = Runs;
  Opts.MaxLineBytes = 4096;
  MuxHarness H(2, Opts, "tmw_overlong_complete.sock");
  std::string Payload = std::string(64 * 1024, 'x') + "\n" +
                        requestsToJsonLine(tinyBatch()) + "\n";
  for (unsigned Run = 0; Run < Runs; ++Run) {
    int Fd = connectRetry(H.Path);
    ASSERT_GE(Fd, 0);
    // One write. The kernel may still hand it over in two pieces, and the
    // server may refuse on the first one and close before the rest is
    // queued; the write then ends early, which is the guard working.
    [[maybe_unused]] ssize_t Sent =
        ::send(Fd, Payload.data(), Payload.size(), MSG_NOSIGNAL);
    ::shutdown(Fd, SHUT_WR);
    EXPECT_EQ(recvAll(Fd),
              batchErrorToJson("batch line exceeds maximum length"))
        << "run " << Run;
    ::close(Fd);
  }
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(H.Server.stats().BadBatches, Runs);
  EXPECT_EQ(H.Server.stats().Batches, 0u);
}

/// A peer that refuses the way the multiplexer does, at a chosen moment:
/// it reads \p Head bytes, waits until the rest of the client's \p Total
/// bytes sit unread in its socket, then answers the refusal and closes
/// with them unread. The client has nothing left to send by then, so it
/// meets ECONNRESET on the read after the refusal.
void refuseOnceAllQueued(int ListenFd, size_t Head, size_t Total) {
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(recvExactly(Fd, Head).size(), Head);
  int Queued = 0;
  while (::ioctl(Fd, FIONREAD, &Queued) == 0 &&
         static_cast<size_t>(Queued) < Total - Head)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(
      sendAll(Fd, batchErrorToJson("batch line exceeds maximum length")));
  ::close(Fd);
}

TEST(Transport, ClientExitsCleanlyWhenServerRefusesOverLongLine) {
  // `tmw_serve --connect` fed an over-long line: the server answers the
  // refusal and closes with our input unread. Both ways the client can
  // learn it, EPIPE on a send and ECONNRESET on a read, mean the server
  // stopped taking input, as a read of 0 does: each run must keep the
  // refusal, send nothing more and exit 0. Even runs go to a multiplexer
  // with a line longer than one readable event's reads (16 x 64 KiB), so
  // it refuses before the newline can arrive, while the client is still
  // sending. Odd runs send a 64 KiB line that fits the socket buffers
  // whole, to a peer that refuses only once all of it is queued.
  constexpr unsigned Runs = 20;
  server::MuxOptions Opts;
  Opts.AcceptLimit = Runs / 2;
  Opts.MaxLineBytes = 4096;
  MuxHarness H(2, Opts, "tmw_client_refused.sock");

  std::string Peer = testing::TempDir() + "tmw_client_reset.sock";
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Peer.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Peer.c_str(), Peer.size() + 1);
  ::unlink(Peer.c_str());
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(ListenFd, 0);
  ASSERT_EQ(::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(ListenFd, 1), 0);

  std::string Batch = requestsToJsonLine(tinyBatch()) + "\n";
  std::string Long = std::string(2 << 20, 'x') + "\n" + Batch;
  std::string Short = std::string(64 * 1024, 'x') + "\n" + Batch;
  for (unsigned Run = 0; Run < Runs; ++Run) {
    bool ToMux = Run % 2 == 0;
    std::thread Refuser;
    if (!ToMux)
      Refuser = std::thread(refuseOnceAllQueued, ListenFd, size_t(4096),
                            Short.size());
    std::string Got;
    EXPECT_EQ(runClientOn(ToMux ? H.Path : Peer, ToMux ? Long : Short, Got),
              0)
        << "run " << Run;
    EXPECT_EQ(Got, batchErrorToJson("batch line exceeds maximum length"))
        << "run " << Run;
    if (Refuser.joinable())
      Refuser.join();
  }
  ::close(ListenFd);
  ::unlink(Peer.c_str());
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(H.Server.stats().BadBatches, Runs / 2);
}

TEST(Transport, ClientInterleavesSendsWithResponseDrain) {
  // ~1 MiB of batches against a server whose output high-water is tiny:
  // the server stops reading this connection almost immediately and only
  // resumes as responses drain. A client that writes all of its input
  // before reading anything deadlocks here once the kernel socket
  // buffers fill — runClient must interleave the two directions.
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  Opts.OutputHighWater = 1024;
  MuxHarness H(2, Opts, "tmw_client_interleave.sock");

  std::string Reference = oneShot(std::vector<CheckRequest>{});
  constexpr unsigned Batches = 4096;
  std::string PaddedLine = "[]" + std::string(254, ' ') + "\n";
  std::string Input, Expect;
  for (unsigned I = 0; I < Batches; ++I) {
    Input += PaddedLine;
    Expect += Reference;
  }
  std::string Got;
  ASSERT_EQ(runClientOn(H.Path, Input, Got), 0);
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(Got, Expect);
}

TEST(Transport, StdioAndClientAnswerEachLineBeforeTheNext) {
  // An interactive caller writes its next line only after it has read
  // the answer to the last. Both fd transports must answer each line as
  // it comes, not when their input grows or ends. At most 10 s per
  // answer: a transport that waits for more input fails here, not hangs.
  std::signal(SIGPIPE, SIG_IGN); // as tmw_serve does
  std::string Line = requestsToJsonLine(tinyBatch()) + "\n";
  std::string Reference = oneShot(tinyBatch());
  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  MuxHarness H(2, Opts, "tmw_interactive.sock");
  QueryServer Stdio({2});
  for (bool Client : {false, true}) {
    const char *Which = Client ? "runClient" : "serveStdio";
    int In[2] = {-1, -1}, Out[2] = {-1, -1};
    ASSERT_EQ(::pipe(In), 0);
    ASSERT_EQ(::pipe(Out), 0);
    std::future<int> Exit = std::async(std::launch::async, [&] {
      return Client ? server::runClient(H.Path, In[0], Out[1])
                    : server::serveStdio(Stdio, In[0], Out[1]);
    });
    // No ASSERT until the transport has returned: it reads In[0] until
    // the close below.
    for (int Round = 0; Round < 3; ++Round) {
      EXPECT_EQ(::write(In[1], Line.data(), Line.size()),
                static_cast<ssize_t>(Line.size()));
      std::string Got =
          recvFor(Out[0], Reference.size(), std::chrono::seconds(10));
      EXPECT_EQ(Got, Reference) << Which << " round " << Round;
      if (Got != Reference)
        break;
    }
    ::close(In[1]); // EOF: the transport finishes
    EXPECT_EQ(Exit.get(), 0) << Which;
    ::close(Out[1]);
    EXPECT_EQ(recvAll(Out[0]), "") << Which;
    ::close(In[0]);
    ::close(Out[0]);
  }
  H.finish();
  EXPECT_EQ(H.Exit, 0);
}

TEST(Transport, StdioDeadOutputCancelsPendingBatches) {
  // The output's reader goes away while batches are in flight and the
  // input stays open: `serveStdio` must return, and the batches nobody
  // can receive must be cancelled instead of evaluated to the end.
  std::signal(SIGPIPE, SIG_IGN); // as tmw_serve does
  std::vector<CheckRequest> Big;
  for (int Copy = 0; Copy < 40; ++Copy)
    for (const CorpusEntry &E : sharedCorpus()) {
      CheckRequest R;
      R.Corpus = E.Name;
      Big.push_back(R);
    }
  std::string Line = requestsToJsonLine(Big) + "\n";
  std::string Input = Line + Line;
  QueryServer S({1});
  int In[2] = {-1, -1}, Out[2] = {-1, -1};
  ASSERT_EQ(::pipe(In), 0);
  ASSERT_EQ(::pipe(Out), 0);
  std::thread Writer([&] {
    [[maybe_unused]] ssize_t N = ::write(In[1], Input.data(), Input.size());
  });
  std::future<int> Exit = std::async(std::launch::async, [&] {
    return server::serveStdio(S, In[0], Out[1]);
  });
  // Both batches submitted (each request goes to the pool in turn, so
  // neither finishes for a while): now nobody will read the answers.
  for (int Wait = 0; Wait < 10000 && S.stats().Batches < 2; ++Wait)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(S.stats().Batches, 2u);
  ::close(Out[0]);
  bool Returned =
      Exit.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  EXPECT_TRUE(Returned) << "serveStdio kept serving a dead output";
  ::close(In[1]); // lets a still-running serveStdio reach EOF
  ::close(In[0]);
  EXPECT_EQ(Exit.get(), 0);
  Writer.join();
  ::close(Out[1]);
  EXPECT_EQ(S.stats().CancelledBatches, 2u);
}

// --- the differential contract ---------------------------------------------

TEST(Transport, MuxMatchesOneShot) {
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Line = requestsToJsonLine(Requests);
  std::string Reference = oneShot(Requests);

  server::MuxOptions Opts;
  Opts.AcceptLimit = 1;
  MuxHarness H(2, Opts, "tmw_mux_ref.sock");
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, Line + "\n" + Line + "\n"));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  std::string Got = recvAll(Fd);
  ::close(Fd);
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(Got, Reference + Reference)
      << "mux diverged from the one-shot engine";
}

TEST(Transport, InterleavedPartialWritesAcrossConnections) {
  // Two connections alternating partial frame writes: each stream must
  // reassemble independently — A's bytes can never leak into B's answer
  // (the batches differ, so leakage is a guaranteed mismatch).
  std::string LineA = requestsToJsonLine(clientBatch(100));
  std::string LineB = requestsToJsonLine(clientBatch(200));
  std::string RefA = oneShot(clientBatch(100));
  std::string RefB = oneShot(clientBatch(200));
  ASSERT_NE(RefA, RefB);

  server::MuxOptions Opts;
  Opts.AcceptLimit = 2;
  MuxHarness H(2, Opts, "tmw_interleave.sock");
  int A = connectRetry(H.Path);
  int B = connectRetry(H.Path);
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);

  size_t MidA = LineA.size() / 3, MidB = 2 * LineB.size() / 3;
  ASSERT_TRUE(sendAll(A, std::string_view(LineA).substr(0, MidA)));
  ASSERT_TRUE(sendAll(B, std::string_view(LineB).substr(0, MidB)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(sendAll(A, std::string(LineA.substr(MidA)) + "\n"));
  ASSERT_TRUE(sendAll(B, std::string(LineB.substr(MidB)) + "\n"));
  ASSERT_EQ(::shutdown(A, SHUT_WR), 0);
  ASSERT_EQ(::shutdown(B, SHUT_WR), 0);

  std::string GotA = recvAll(A);
  std::string GotB = recvAll(B);
  ::close(A);
  ::close(B);
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(GotA, RefA);
  EXPECT_EQ(GotB, RefB);
}

// --- concurrency -----------------------------------------------------------

TEST(Transport, ConcurrentClientsNeverIntermix) {
  // N client threads × M batches over one pool: every connection's byte
  // stream must equal its own one-shot reference — concurrency may
  // reorder work on the pool, never bytes on a connection.
  constexpr unsigned Clients = 4, Batches = 3;
  server::MuxOptions Opts;
  Opts.AcceptLimit = Clients;
  Opts.MaxBatchesInFlight = 2; // exercise the in-flight window too
  MuxHarness H(4, Opts, "tmw_stress.sock");

  std::vector<std::string> Refs(Clients), Lines(Clients);
  for (unsigned C = 0; C < Clients; ++C) {
    Refs[C] = oneShot(clientBatch(C));
    Lines[C] = requestsToJsonLine(clientBatch(C)) + "\n";
  }

  std::vector<std::string> Got(Clients);
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      int Fd = connectRetry(H.Path);
      if (Fd < 0) {
        ++Failures;
        return;
      }
      std::string Payload;
      for (unsigned B = 0; B < Batches; ++B)
        Payload += Lines[C];
      if (!sendAll(Fd, Payload))
        ++Failures;
      ::shutdown(Fd, SHUT_WR);
      Got[C] = recvAll(Fd);
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  H.finish();
  EXPECT_EQ(H.Exit, 0);
  ASSERT_EQ(Failures.load(), 0);

  for (unsigned C = 0; C < Clients; ++C) {
    std::string Expect;
    for (unsigned B = 0; B < Batches; ++B)
      Expect += Refs[C];
    EXPECT_EQ(Got[C], Expect) << "client " << C;
  }
  EXPECT_EQ(H.Server.stats().Batches, uint64_t(Clients) * Batches);
}

TEST(Transport, SlowReaderBackpressureDoesNotDisturbRivals) {
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Line = requestsToJsonLine(Requests) + "\n";
  std::string Reference = oneShot(Requests);
  // The backpressure mark must be far below one document, so a single
  // completion overshoots it deterministically (documents queue before
  // any socket write happens).
  ASSERT_GT(Reference.size(), 2048u);

  server::MuxOptions Opts;
  Opts.AcceptLimit = 2;
  Opts.OutputHighWater = 1024;
  Opts.MaxBatchesInFlight = 1;
  MuxHarness H(2, Opts, "tmw_slow.sock");

  // The slow reader: sends three batches, then doesn't read for a while.
  int Slow = connectRetry(H.Path);
  ASSERT_GE(Slow, 0);
  ASSERT_TRUE(sendAll(Slow, Line + Line + Line));
  ASSERT_EQ(::shutdown(Slow, SHUT_WR), 0);

  // A rival does a complete round trip while the slow reader is stalled.
  int Fast = connectRetry(H.Path);
  ASSERT_GE(Fast, 0);
  ASSERT_TRUE(sendAll(Fast, Line));
  ASSERT_EQ(::shutdown(Fast, SHUT_WR), 0);
  EXPECT_EQ(recvAll(Fast), Reference);
  ::close(Fast);

  // Now the slow reader catches up: every byte, in order.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(recvAll(Slow), Reference + Reference + Reference);
  ::close(Slow);
  H.finish();
  EXPECT_EQ(H.Exit, 0);

  // The three-batch connection must have been paused at least once.
  bool FoundSlow = false;
  for (const server::MuxConnStats &C : H.Mux.stats().Connections)
    if (C.Batches == 3) {
      FoundSlow = true;
      EXPECT_GE(C.BackpressurePauses, 1u);
      EXPECT_GT(C.PeakBuffered, Opts.OutputHighWater);
      EXPECT_FALSE(C.Aborted);
    }
  EXPECT_TRUE(FoundSlow);
}

TEST(Transport, MidBatchDisconnectLeavesRivalsUndisturbed) {
  server::MuxOptions Opts;
  Opts.AcceptLimit = 2;
  MuxHarness H(2, Opts, "tmw_disconnect.sock");

  // The vanishing client: submit work, then fully close without reading
  // a byte. Its batches are cancelled/discarded; the loop must not hang
  // waiting for it, and its rival's bytes must be exact.
  {
    int Fd = connectRetry(H.Path);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendAll(Fd, requestsToJsonLine(clientBatch(7)) + "\n"));
    ::close(Fd);
  }

  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Reference = oneShot(Requests);
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  std::string Line = requestsToJsonLine(Requests) + "\n";
  ASSERT_TRUE(sendAll(Fd, Line + Line));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);
  EXPECT_EQ(recvAll(Fd), Reference + Reference);
  ::close(Fd);

  H.finish();
  EXPECT_EQ(H.Exit, 0);
  EXPECT_EQ(H.Mux.stats().Aborted, 1u);
}

TEST(Transport, CleanShutdownWithClientsConnected) {
  std::vector<CheckRequest> Requests = sampleBatch();
  std::string Reference = oneShot(Requests);

  MuxHarness H(2, {}, "tmw_shutdown.sock"); // no accept limit: daemon mode

  // A client mid-session: one answered batch, connection held open.
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, requestsToJsonLine(Requests) + "\n"));
  EXPECT_EQ(recvExactly(Fd, Reference.size()), Reference);

  // Stop with the client still connected: the loop cancels, closes, and
  // serve() returns 0 — it must not wait for the client to go away.
  H.stop();
  EXPECT_EQ(H.Exit, 0);

  // The client sees EOF, not a hang.
  EXPECT_EQ(recvAll(Fd), "");
  ::close(Fd);
}

// --- EINTR: signals must never drop a connection ---------------------------

/// SIGUSR1 handler installed the hard way: sigaction with no SA_RESTART,
/// so blocking syscalls in the signalled thread genuinely return EINTR
/// (glibc's signal() would set SA_RESTART and mask the whole bug class).
struct NoRestartSigusr1 {
  struct sigaction Old {};
  NoRestartSigusr1() {
    struct sigaction Sa {};
    Sa.sa_handler = [](int) {};
    sigemptyset(&Sa.sa_mask);
    Sa.sa_flags = 0;
    sigaction(SIGUSR1, &Sa, &Old);
  }
  ~NoRestartSigusr1() { sigaction(SIGUSR1, &Old, nullptr); }
};

void pokeThread(std::thread &T, int Times) {
  for (int I = 0; I < Times; ++I) {
    pthread_kill(T.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Transport, MuxPollSurvivesEintr) {
  NoRestartSigusr1 Guard;
  MuxHarness H(2, {}, "tmw_eintr_poll.sock");

  // Signal the loop thread while it idles in poll() — poll is never
  // auto-restarted, so this path fires unconditionally.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pokeThread(H.Loop, 3);

  std::vector<CheckRequest> Requests = tinyBatch();
  std::string Line = requestsToJsonLine(Requests);
  std::string Reference = oneShot(Requests);
  int Fd = connectRetry(H.Path);
  ASSERT_GE(Fd, 0);
  // Half a frame, then signals while the loop waits for the rest: the
  // torn frame must survive the EINTRs.
  ASSERT_TRUE(sendAll(Fd, std::string_view(Line).substr(0, Line.size() / 2)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pokeThread(H.Loop, 3);
  ASSERT_TRUE(
      sendAll(Fd, std::string(Line.substr(Line.size() / 2)) + "\n"));
  pokeThread(H.Loop, 2); // and while serving
  EXPECT_EQ(recvExactly(Fd, Reference.size()), Reference);
  ::close(Fd);
  H.stop();
  EXPECT_EQ(H.Exit, 0);
}

} // namespace
