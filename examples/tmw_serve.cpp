//===- tmw_serve.cpp - The long-lived query server CLI --------------------------==//
///
/// The resident frontend of the batch query engine (server/QueryServer.h):
/// instead of one process per batch, start once and stream batches in —
/// the corpus, parsed programs, resolved spec sets, and the worker pool
/// (threads + analysis arenas) stay resident, so repeated CI/bench
/// queries stop paying process startup and re-parsing.
///
/// Wire form (NDJSON): one `tmw-query-batch-v1` document per input line;
/// one `tmw-query-verdicts-v1` document per batch on stdout, byte-for-byte
/// identical to a one-shot `litmus_tool --json` run of the same requests
/// and jobs count. A malformed line answers with an error document and
/// the server lives on. One loop serves every transport: the poll
/// multiplexer (server/Multiplexer.h), with stdin/stdout as its one
/// connection by default. Each answer is written as soon as it is ready,
/// in input order; up to 4 batches of a connection run at once. A line
/// over 64 MiB answers `batch line exceeds maximum length` and ends that
/// connection's input; a dead stdout ends the session.
///
/// Usage:   ./tmw_serve [options]              # serve stdin -> stdout
/// Example: ./tmw_serve --print-corpus-batch | ./tmw_serve --jobs 4
///          ./tmw_serve --jobs 4 --listen /tmp/tmw.sock --max-clients 8
///          ./tmw_serve --connect /tmp/tmw.sock < batches.jsonl
///
/// Flags:
///   --jobs N              resident pool workers (strict parse: a
///                         malformed or non-positive N is a usage error).
///   --listen <path>       serve a Unix-domain stream socket at <path>
///                         through the poll-based multiplexer: up to
///                         --max-clients concurrent connections share the
///                         one pool and cache, each with byte-identical
///                         verdict streams, backpressure for slow
///                         readers, and mid-batch disconnect cleanup.
///   --max-clients N       concurrent connection cap for the multiplexer
///                         (default 64).
///   --accept-limit N      exit after serving N connections (0 = run
///                         until killed; bounded CI runs use this).
///   --connect <path>      client mode: send stdin's batch lines to the
///                         server at <path>, print each verdict document
///                         to stdout as it arrives (the CI fan-out
///                         client).
///   --store <path>        persistent verdict store shared by every batch
///                         of every connection: repeat queries answer at
///                         I/O speed across restarts, byte-identical to
///                         cold evaluation. The server *refuses to start*
///                         (exit 2) on an unwritable path, corrupt
///                         header, or format-version mismatch rather than
///                         silently running cache-less.
///   --telemetry           append batch timing + per-worker load to every
///                         verdicts document (forfeits byte-identity with
///                         one-shot runs).
///   --stats               print session counters (batches, cache hits,
///                         evictions, resident spec sets — plus
///                         per-connection traffic under --listen)
///                         to stderr at exit.
///   --print-corpus-batch  emit the built-in corpus as one batch line —
///                         the requests `litmus_tool --corpus --json`
///                         evaluates — and exit; pipe it back into a
///                         server (or save it as a CI fixture).
///
/// Exit status: 0 on clean EOF, 1 on socket errors, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "litmus/Library.h"
#include "query/QueryIO.h"
#include "server/Multiplexer.h"
#include "server/QueryServer.h"
#include "server/Transport.h"
#include "store/VerdictStore.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <unistd.h>

using namespace tmw;

namespace {

int usageError(const char *Fmt, const char *Arg) {
  std::fprintf(stderr, Fmt, Arg);
  std::fputc('\n', stderr);
  return 2;
}

unsigned parseCountStrict(const char *Text, const char *Flag) {
  // The shared strict parser (0 is meaningful: unlimited), plus a
  // smallness bound — these knobs size server-side tables.
  uint64_t V = bench::parseCountStrict(Text, Flag);
  if (V > 1u << 20) {
    std::fprintf(stderr, "error: %s %s: expected a non-negative integer\n",
                 Flag, Text);
    std::exit(2);
  }
  return static_cast<unsigned>(V);
}

void printServerStats(const QueryServer &Server) {
  ServerStats St = Server.stats();
  if (St.HasStore)
    std::fprintf(
        stderr,
        "tmw_serve: verdict store: %llu hits / %llu misses, %llu appends "
        "(%llu errors); %llu records resident, %llu recovered at open "
        "(%llu stale, %llu duplicate), %llu torn-tail bytes truncated\n",
        static_cast<unsigned long long>(St.Store.Hits),
        static_cast<unsigned long long>(St.Store.Misses),
        static_cast<unsigned long long>(St.Store.Appends),
        static_cast<unsigned long long>(St.Store.AppendErrors),
        static_cast<unsigned long long>(St.Store.Records),
        static_cast<unsigned long long>(St.Store.RecoveredRecords),
        static_cast<unsigned long long>(St.Store.StaleRecords),
        static_cast<unsigned long long>(St.Store.DuplicateRecords),
        static_cast<unsigned long long>(St.Store.TruncatedTailBytes));
  std::fprintf(stderr,
               "tmw_serve: %llu batches (%llu bad, %llu cancelled), "
               "%llu requests; "
               "program cache %llu hits / %llu misses (%llu resident, "
               "%llu evictions); spec-set cache %llu hits / %llu misses "
               "(%llu resident)\n",
               static_cast<unsigned long long>(St.Batches),
               static_cast<unsigned long long>(St.BadBatches),
               static_cast<unsigned long long>(St.CancelledBatches),
               static_cast<unsigned long long>(St.Requests),
               static_cast<unsigned long long>(St.Cache.ProgramHits),
               static_cast<unsigned long long>(St.Cache.ProgramMisses),
               static_cast<unsigned long long>(St.Cache.ProgramsCached),
               static_cast<unsigned long long>(St.Cache.ProgramEvictions),
               static_cast<unsigned long long>(St.Cache.SpecSetHits),
               static_cast<unsigned long long>(St.Cache.SpecSetMisses),
               static_cast<unsigned long long>(St.Cache.SpecSetsCached));
}

void printMuxStats(const server::MuxStats &M) {
  std::fprintf(stderr,
               "tmw_serve: multiplexer served %llu connections (%llu aborted)\n",
               static_cast<unsigned long long>(M.Accepted),
               static_cast<unsigned long long>(M.Aborted));
  for (const server::MuxConnStats &C : M.Connections)
    std::fprintf(stderr,
                 "  conn %llu: %llu batches (%llu bad), %llu requests, "
                 "%llu B in / %llu B out, peak buffered %zu B, "
                 "%llu backpressure pauses%s\n",
                 static_cast<unsigned long long>(C.Id),
                 static_cast<unsigned long long>(C.Batches),
                 static_cast<unsigned long long>(C.BadBatches),
                 static_cast<unsigned long long>(C.Requests),
                 static_cast<unsigned long long>(C.BytesIn),
                 static_cast<unsigned long long>(C.BytesOut),
                 C.PeakBuffered,
                 static_cast<unsigned long long>(C.BackpressurePauses),
                 C.Aborted ? ", aborted" : "");
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 1;
  bool Telemetry = false, Stats = false, PrintCorpusBatch = false;
  std::string ListenPath, ConnectPath, StorePath;
  server::MuxOptions Mux;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--jobs") == 0 && I + 1 < Argc) {
      Jobs = bench::parseJobsStrict(Argv[++I], "--jobs");
      continue;
    }
    if (std::strncmp(A, "--jobs=", 7) == 0) {
      Jobs = bench::parseJobsStrict(A + 7, "--jobs");
      continue;
    }
    if (std::strcmp(A, "--listen") == 0 && I + 1 < Argc) {
      ListenPath = Argv[++I];
    } else if (std::strncmp(A, "--listen=", 9) == 0) {
      ListenPath = A + 9;
    } else if (std::strcmp(A, "--connect") == 0 && I + 1 < Argc) {
      ConnectPath = Argv[++I];
    } else if (std::strncmp(A, "--connect=", 10) == 0) {
      ConnectPath = A + 10;
    } else if (std::strcmp(A, "--max-clients") == 0 && I + 1 < Argc) {
      Mux.MaxClients = parseCountStrict(Argv[++I], "--max-clients");
      if (Mux.MaxClients == 0)
        return usageError("error: --max-clients needs at least %s", "1");
    } else if (std::strcmp(A, "--accept-limit") == 0 && I + 1 < Argc) {
      Mux.AcceptLimit = parseCountStrict(Argv[++I], "--accept-limit");
    } else if (std::strcmp(A, "--store") == 0 && I + 1 < Argc) {
      StorePath = Argv[++I];
    } else if (std::strncmp(A, "--store=", 8) == 0) {
      StorePath = A + 8;
    } else if (std::strcmp(A, "--telemetry") == 0) {
      Telemetry = true;
    } else if (std::strcmp(A, "--stats") == 0) {
      Stats = true;
    } else if (std::strcmp(A, "--print-corpus-batch") == 0) {
      PrintCorpusBatch = true;
    } else {
      return usageError("error: unknown flag %s", A);
    }
  }

  if (PrintCorpusBatch) {
    // The exact requests litmus_tool --corpus --json builds (--json
    // implies outcome collection), as one NDJSON line.
    std::vector<CheckRequest> Requests;
    for (const CorpusEntry &E : sharedCorpus()) {
      CheckRequest R;
      R.Corpus = E.Name;
      R.WantOutcomes = true;
      Requests.push_back(std::move(R));
    }
    std::printf("%s\n", requestsToJsonLine(Requests).c_str());
    return 0;
  }

  // A client/server that disconnects mid-write must not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  if (!ConnectPath.empty())
    return server::runClient(ConnectPath, STDIN_FILENO, STDOUT_FILENO);

  // Refuse to start on a store that cannot be opened: a resident server
  // silently running cache-less would defeat the whole warm-start story.
  std::unique_ptr<VerdictStore> Store;
  if (!StorePath.empty()) {
    std::string Error;
    Store = VerdictStore::open(StorePath, &Error);
    if (!Store) {
      std::fprintf(stderr, "error: --store %s: %s\n", StorePath.c_str(),
                   Error.c_str());
      return 2;
    }
  }

  ServerOptions SrvOpts;
  SrvOpts.Jobs = Jobs;
  SrvOpts.Telemetry = Telemetry;
  SrvOpts.Store = Store.get();
  QueryServer Server(SrvOpts);
  int Exit;
  if (ListenPath.empty()) {
    Exit = server::serveStdio(Server, STDIN_FILENO, STDOUT_FILENO);
  } else {
    server::ConnectionMultiplexer M(Server, Mux);
    Exit = M.serve(ListenPath);
    if (Stats)
      printMuxStats(M.stats());
  }

  if (Stats)
    printServerStats(Server);
  return Exit;
}
