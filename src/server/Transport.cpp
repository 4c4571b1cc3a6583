//===- Transport.cpp - Server transports (stdio, socket client) ----------------==//

#include "server/Transport.h"

#include "server/Multiplexer.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

// macOS has no MSG_NOSIGNAL; writes there can raise SIGPIPE on a closed
// peer, which the CLI ignores process-wide instead.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace tmw;

namespace {

int failSys(const std::string &What) {
  std::fprintf(stderr, "error: %s: %s\n", What.c_str(), std::strerror(errno));
  return 1;
}

/// Move bytes between the connected stream socket \p Sock and two fds
/// until the connection is done (see the file comment). \p Peer names
/// the other end in diagnostics.
int pump(int Sock, int InFd, int OutFd, const std::string &Peer) {
  // Answers go out as they arrive, never after all input is sent: the
  // server stops reading a connection whose answers back up
  // (OutputHighWater), so a pump sitting on them while it still has
  // input to push would deadlock both sides once the socket buffers fill.
  constexpr size_t kMaxPendingInput = 1u << 20;
  std::string Pending;
  bool InEof = false, SentEof = false;
  char Chunk[65536];
  for (;;) {
    // Half-close once the last input byte is on the wire, so the server
    // sees EOF and finishes.
    if (InEof && Pending.empty() && !SentEof) {
      ::shutdown(Sock, SHUT_WR);
      SentEof = true;
    }
    // The output is polled for errors only: its reader going away ends
    // the session, which cancels the batches in flight.
    pollfd P[3] = {{Sock, POLLIN, 0}, {OutFd, 0, 0}, {InFd, POLLIN, 0}};
    if (!Pending.empty())
      P[0].events |= POLLOUT;
    bool ReadIn = !InEof && Pending.size() < kMaxPendingInput;
    if (::poll(P, ReadIn ? 3 : 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      return failSys("poll " + Peer);
    }
    if (P[1].revents & (POLLERR | POLLHUP | POLLNVAL))
      return 0;

    if (ReadIn && P[2].revents) {
      // A read error ends the input as EOF does.
      ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
      if (N > 0)
        Pending.append(Chunk, static_cast<size_t>(N));
      else if (N == 0 || (errno != EINTR && errno != EAGAIN))
        InEof = true;
    }
    if (P[0].revents & POLLOUT) {
      ssize_t N = ::send(Sock, Pending.data(), Pending.size(),
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (N >= 0) {
        Pending.erase(0, static_cast<size_t>(N));
      } else if (errno == EPIPE || errno == ECONNRESET) {
        // The server stopped taking our input (it refused an over-long
        // line, say): send nothing more, but read on — its answers, the
        // refusal included, may still be queued.
        Pending.clear();
        InEof = SentEof = true;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return failSys("send " + Peer);
      }
    }
    if (P[0].revents & (POLLIN | POLLERR | POLLHUP)) {
      ssize_t N = ::read(Sock, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        // A reset comes only after every byte the server sent was read:
        // it closed with our input unread, as it does on a refusal.
        if (errno == ECONNRESET)
          return 0;
        return failSys("read " + Peer);
      }
      // EOF: the server finished (or rejected the rest of our input).
      if (N == 0)
        return 0;
      for (ssize_t Off = 0; Off < N;) {
        ssize_t W = ::write(OutFd, Chunk + Off, static_cast<size_t>(N - Off));
        if (W < 0 && errno == EINTR)
          continue;
        if (W <= 0)
          return 0; // a dead output ends the session
        Off += W;
      }
    }
  }
}

} // namespace

int server::serveStdio(QueryServer &S, int InFd, int OutFd) {
  // The multiplexer serves a socket, never the two fds themselves: its
  // POLLHUP and O_NONBLOCK handling are socket rules.
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
    return failSys("socketpair");
  ConnectionMultiplexer Mux(S);
  int MuxExit = 0;
  std::thread Loop([&] { MuxExit = Mux.serve(Sv[0]); });
  // Closing our end ends the connection, so the loop returns, on every
  // way out of the pump; after a dead output, that is what cancels the
  // batches still in flight.
  struct Hangup {
    int Fd;
    std::thread &Loop;
    ~Hangup() {
      ::close(Fd);
      Loop.join();
    }
  };
  int Exit;
  {
    Hangup H{Sv[1], Loop};
    Exit = pump(Sv[1], InFd, OutFd, "stdio");
  }
  return Exit != 0 ? Exit : MuxExit;
}

int server::runClient(const std::string &Path, int InFd, int OutFd) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long (max %zu): %s\n",
                 sizeof(Addr.sun_path) - 1, Path.c_str());
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  // Retry the connect briefly: the common CI shape starts the server in
  // the background and fans clients out immediately, racing the bind.
  int Fd = -1;
  for (int Try = 0; Try < 200; ++Try) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return failSys("socket " + Path);
    int Rc;
    do {
      Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    } while (Rc < 0 && errno == EINTR);
    if (Rc == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (errno != ENOENT && errno != ECONNREFUSED)
      return failSys("connect " + Path);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (Fd < 0) {
    std::fprintf(stderr, "error: connect %s: server never came up\n",
                 Path.c_str());
    return 1;
  }
  int Exit = pump(Fd, InFd, OutFd, Path);
  ::close(Fd);
  return Exit;
}
