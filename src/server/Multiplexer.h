//===- Multiplexer.h - Poll-based concurrent connection multiplexer -*- C++ -*-==//
///
/// \file
/// The one server loop of the query server: one `poll()` event loop
/// multiplexing N Unix-socket connections over the one resident worker
/// pool and shared `SessionCache` (server/QueryServer.h's concurrent
/// `submitBatch` API) — so one `tmw_serve` process can feed many CI lanes
/// at once, the deployment shape the herd7 lineage assumes for large
/// litmus campaigns. `serve(Path)` listens for connections;
/// `serve(Fd)` serves one already-connected socket, which is how
/// `tmw_serve` serves stdin/stdout (server/Transport.h).
///
/// Design (the classic nonblocking accept loop + per-connection state
/// machine):
///
///  * **Framing.** Every connection owns an input buffer; a batch line
///    may arrive in arbitrary chunks (torn anywhere, or many lines
///    coalesced into one read) and is only acted on once its '\n'
///    arrives — plus the trailing-line rule: an unterminated final line
///    still answers at EOF. Blank lines are skipped, malformed lines
///    answer with `QueryServer::parseBatch`'s error document, the one
///    `serveLine` returns.
///
///  * **Concurrency without intermixing.** Each complete line becomes one
///    tagged batch on the shared pool; requests of rival connections
///    interleave worker-by-worker, but a batch's responses are collected
///    per batch and serialised into one verdicts document, and documents
///    are appended to a connection's output strictly in that connection's
///    batch arrival order (out-of-order completions wait their turn). So
///    every connection's byte stream is exactly what one-shot
///    `litmus_tool --json` would produce, regardless of how many rivals
///    are connected. Each batch keeps at most `jobs()` of its requests in
///    the pool at once, so one client's corpus-sized batch cannot
///    monopolise it.
///
///  * **Backpressure.** Output is buffered per connection and written as
///    the socket drains. A slow reader whose pending output exceeds
///    `OutputHighWater` stops being *read* (and stops being parsed —
///    buffered input waits too) until its writes drain below half the
///    mark; other connections are unaffected. Input is bounded too: a
///    line longer than `MaxLineBytes`, complete or not, is never parsed;
///    it answers with an error document and ends the connection's input
///    (framing cannot resync), so a newline-free firehose cannot grow
///    the input buffer without bound.
///
///  * **Disconnects.** A vanished client's in-flight batches are
///    cancelled (remaining requests skipped) and its pending output
///    discarded, without disturbing other connections; completion
///    accounting stays exact, so shutdown never leaks a batch.
///
/// The loop itself never evaluates a request — evaluation lives on the
/// pool workers; the loop thread only moves bytes, so a long batch never
/// blocks accepts, reads, or writes. Every poll/accept/read/write call
/// restarts on EINTR, so a signal delivered to the loop thread never
/// drops a connection (pinned by tests/transport_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SERVER_MULTIPLEXER_H
#define TMW_SERVER_MULTIPLEXER_H

#include "server/QueryServer.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tmw {
namespace server {

/// The longest batch line the multiplexer buffers. Past it, it answers
/// `batch line exceeds maximum length` and stops reading the connection
/// (framing cannot resync), so a newline-free stream cannot grow the
/// server without bound. Far above any real corpus batch.
inline constexpr size_t kMaxBatchLineBytes = 64u << 20;

/// Once a connection's buffered input outgrows this, its buffer reserves
/// the whole line bound in one step: growing it by doubling would copy
/// about half the bound into a block twice its size, so a refused line
/// would peak near twice the bound.
inline constexpr size_t kLineReserveBytes = 1u << 20;

/// Multiplexer tuning knobs.
struct MuxOptions {
  /// Concurrent connections served at once; the listen socket stops
  /// being polled at capacity (further connects queue in the backlog).
  unsigned MaxClients = 64;
  /// Total connections to accept before the loop exits once drained
  /// (0 = serve until `requestStop`). Tests and bounded CI runs use it.
  unsigned AcceptLimit = 0;
  /// Backpressure high-water mark: a connection whose pending output
  /// exceeds this stops being read until it drains below half of it.
  size_t OutputHighWater = 4u << 20;
  /// Max batches of one connection in flight on the pool at once;
  /// further complete lines wait in the input buffer.
  unsigned MaxBatchesInFlight = 4;
  /// The longest line served. A longer one, complete or not, is
  /// answered with an error document and the connection's input ends
  /// there (framing cannot resync), so the input buffer stays bounded.
  size_t MaxLineBytes = kMaxBatchLineBytes;
};

/// Lifetime counters of one connection (reported by `stats()`).
struct MuxConnStats {
  uint64_t Id = 0;
  uint64_t Batches = 0, BadBatches = 0, Requests = 0;
  uint64_t BytesIn = 0, BytesOut = 0;
  /// Peak pending-output bytes (how hard backpressure worked).
  size_t PeakBuffered = 0;
  /// Times the connection was paused for backpressure.
  uint64_t BackpressurePauses = 0;
  /// True when the connection died mid-session (error/hangup) rather
  /// than finishing cleanly.
  bool Aborted = false;
};

/// Aggregate multiplexer counters.
struct MuxStats {
  uint64_t Accepted = 0;
  uint64_t Aborted = 0;
  std::vector<MuxConnStats> Connections; ///< closed connections, in close order
};

/// The poll loop. Construct over a resident server, then `serve` (blocks
/// on the calling thread until AcceptLimit is reached and drained, the
/// one connection of `serve(Fd)` is closed and drained, or `requestStop`
/// is called from another thread).
class ConnectionMultiplexer {
public:
  ConnectionMultiplexer(QueryServer &S, MuxOptions Opts = {});
  ~ConnectionMultiplexer();
  ConnectionMultiplexer(const ConnectionMultiplexer &) = delete;
  ConnectionMultiplexer &operator=(const ConnectionMultiplexer &) = delete;

  /// Bind a Unix-domain socket at \p Path (replacing a stale socket
  /// file) and run the event loop. Call at most once per multiplexer.
  /// Returns 0 on a clean finish, 1 on socket setup errors (one
  /// diagnostic line on stderr). All in-flight batches are drained
  /// before returning — even on `requestStop` with clients still
  /// connected (their batches are cancelled, their connections closed).
  int serve(const std::string &Path);

  /// Serve the one connected stream socket \p Fd (made nonblocking,
  /// closed with the connection) with no listen socket, as `serve(Path)`
  /// serves each connection; returns once it is closed and drained.
  /// Call at most once per multiplexer, and not beside `serve(Path)`.
  int serve(int Fd);

  /// Thread-safe: wake the loop, stop accepting, cancel every in-flight
  /// batch, close all connections, drain, and make `serve` return.
  void requestStop();

  /// Counters of closed connections (call after `serve` returns; not
  /// synchronised with a running loop).
  const MuxStats &stats() const { return Stats; }

private:
  struct Impl;
  friend struct Impl;
  QueryServer &Server;
  MuxOptions Opts;
  MuxStats Stats;
  std::atomic<bool> StopRequested{false};
  /// Self-pipe (read, write ends), alive for the object's lifetime:
  /// pool workers and `requestStop` poke the loop through the write end.
  int WakePipe[2] = {-1, -1};
};

} // namespace server
} // namespace tmw

#endif // TMW_SERVER_MULTIPLEXER_H
