//===- Transport.h - Server transports (stdio, socket client) ---*- C++ -*-==//
///
/// \file
/// The byte pump around the one server loop (server/Multiplexer.h). By
/// default `tmw_serve` serves stdin/stdout as one multiplexer connection
/// (`printf '%s\n' <batch> | tmw_serve`); its client (`--connect`) talks
/// to the Unix socket the multiplexer listens on. Both speak one frame:
/// a `tmw-query-batch-v1` document per line in, a `tmw-query-verdicts-v1`
/// document per batch out.
///
/// Both move bytes with one pump, which polls its input beside the socket
/// and holds at most about 1 MiB of input: each answer is written as it
/// arrives, and a newline-free input cannot grow the process. A dead
/// output ends the session, which cancels the batches in flight. Callers
/// ignore SIGPIPE, as `tmw_serve` does. Every call restarts on EINTR.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SERVER_TRANSPORT_H
#define TMW_SERVER_TRANSPORT_H

#include <string>

namespace tmw {

class QueryServer;

namespace server {

/// Serve the batch lines of \p InFd to \p OutFd as one multiplexer
/// connection over a socket pair. Returns 0 once the input is answered
/// or refused or the output is dead, 1 on socket errors.
int serveStdio(QueryServer &S, int InFd, int OutFd);

/// The client (`tmw_serve --connect`): pump \p InFd to the server at the
/// Unix socket \p Path and its answers to \p OutFd, retrying the connect
/// briefly while a freshly started server binds. Returns 0, or 1 on
/// socket errors (one diagnostic line on stderr).
int runClient(const std::string &Path, int InFd, int OutFd);

} // namespace server
} // namespace tmw

#endif // TMW_SERVER_TRANSPORT_H
