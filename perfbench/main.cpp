//===- main.cpp - Command line of the checker benchmark --------------------------==//
///
/// perfbench_bin --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--commit <id>] [--out <dir>] [--ref <dir>]
///                  [--corrupt-reference]
/// perfbench_bin --emit-reference <dir>
///
/// Runs one workload and prints `# key: value` report lines followed by
/// one JSON line: {"correct", "attempted", "failed", "metrics"} with every
/// metric the run measured. `perfbench/run.py` builds this binary and
/// narrows the metrics to those BENCHMARK.json names for the mode.
///
/// --emit-reference regenerates the reference answers: the canonical
/// hashes of the x86 Forbid and Allow suites at |E| = 5 and at
/// |E| = kSynthUnitEvents, and the Forbid
/// tests of the replay pool that their TM model allows.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "enumerate/Relaxation.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "synth/Conformance.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/stat.h>

using namespace tmw;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_bin --workload "
               "<synth_x86|matrix_replay|serve_mixed|store_restart> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--out <dir>] "
               "[--ref <dir>] [--corrupt-reference]\n"
               "       perfbench_bin --emit-reference <dir>\n",
               Why);
  std::exit(2);
}

uint64_t parseUint(const char *S, const char *What) {
  uint64_t V = 0;
  const char *End = S + std::strlen(S);
  auto [P, Ec] = std::from_chars(S, End, V);
  if (Ec != std::errc() || P != End || S == End)
    usage(What);
  return V;
}

bool readLines(const std::string &Path, std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Out.push_back(Line);
  return true;
}

/// A synth reference file: `forbid <hex>` / `allow <hex>` lines.
bool loadSynthReference(const std::string &Path, SuiteHashes &Into) {
  std::vector<std::string> Lines;
  if (!readLines(Path, Lines))
    return false;
  for (const std::string &L : Lines) {
    std::istringstream S(L);
    std::string Kind, Hex;
    S >> Kind >> Hex;
    uint64_t H = std::stoull(Hex, nullptr, 16);
    (Kind == "forbid" ? Into.Forbid : Into.Allow).push_back(H);
  }
  return !Into.Forbid.empty() && !Into.Allow.empty();
}

/// Write the hashes of the x86 suites at |E| = \p NumEvents to \p Path.
bool emitSynthReference(const std::string &Path, unsigned NumEvents) {
  std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse("x86");
  std::unique_ptr<MemoryModel> Base = ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ForbidSuite F = synthesizeForbid(*Tm, *Base, V, NumEvents);
  std::vector<Execution> Allow = relaxationsOf(F.Tests, V);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "# Canonical hashes (enumerate/Relaxation canonicalHash) "
                    "of the x86 Forbid suite at |E| = %u\n# (x86 against "
                    "x86/+baseline, forArch(X86)) and of its one-step "
                    "relaxations (the Allow suite).\n",
               NumEvents);
  for (const Execution &X : F.Tests)
    std::fprintf(Out, "forbid %016llx\n",
                 static_cast<unsigned long long>(canonicalHash(X)));
  for (const Execution &X : Allow)
    std::fprintf(Out, "allow %016llx\n",
                 static_cast<unsigned long long>(canonicalHash(X)));
  std::fclose(Out);
  std::printf("synth_x86 |E| = %u: %zu forbid, %zu allow\n", NumEvents,
              F.Tests.size(), Allow.size());
  return true;
}

int emitReference(const std::string &Dir) {
  if (!emitSynthReference(Dir + "/synth_x86.txt", 5) ||
      !emitSynthReference(Dir + "/synth_x86_unit.txt", kSynthUnitEvents))
    return 1;

  Pool P = buildPool();
  std::vector<CheckRequest> Requests = poolRequests(P, kMatrixSpecs, false, false);
  std::vector<CheckResponse> Resp =
      QueryEngine({.Jobs = 1, .Strategy = EvalStrategy::Independent})
          .runAll(Requests);
  std::FILE *Out = std::fopen((Dir + "/pool_exceptions.txt").c_str(), "w");
  if (!Out)
    return 1;
  std::fprintf(Out, "# Replay-pool Forbid tests that their TM model allows "
                    "(postcondition reachable),\n# measured with the "
                    "independent strategy. Every other Forbid test is "
                    "forbidden\n# under its TM spec; all are allowed under "
                    "its +baseline.\n");
  size_t Count = 0;
  for (size_t I = 0; I < P.Programs.size(); ++I) {
    const PoolProgram &Prog = P.Programs[I];
    if (Prog.R != Role::Forbid)
      continue;
    for (size_t S = 0; S < kMatrixSpecs.size(); ++S)
      if (kMatrixSpecs[S] == Prog.TmSpec && Resp[I].Verdicts[S].Allowed) {
        std::fprintf(Out, "%s\n", Prog.Name.c_str());
        ++Count;
      }
  }
  std::fclose(Out);
  std::printf("pool: %zu programs, %zu exceptions\n", P.Programs.size(),
              Count);
  return 0;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      continue;
    Out += Ch;
  }
  return Out + "\"";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

} // namespace

int main(int argc, char **argv) {
  Context C;
  std::string Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  C.OutDir = ".perfbench_run";
  C.RefDir = "perfbench/reference";
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload") {
      C.Workload = Value();
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = parseUint(Value(), "--seed expects a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      C.Seconds = double(
          parseUint(Value(), "--seconds expects a positive integer"));
      HaveSeconds = C.Seconds > 0;
    } else if (A == "--trace") {
      uint64_t T = parseUint(Value(), "--trace expects 0 or 1");
      if (T > 1)
        usage("--trace expects 0 or 1");
      C.Trace = T == 1;
      HaveTrace = true;
    } else if (A == "--commit") {
      Commit = Value();
    } else if (A == "--out") {
      C.OutDir = Value();
    } else if (A == "--ref") {
      C.RefDir = Value();
    } else if (A == "--corrupt-reference") {
      C.CorruptReference = true;
    } else if (A == "--emit-reference") {
      return emitReference(Value());
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");

  void (*Run)(Context &) = nullptr;
  if (C.Workload == "synth_x86")
    Run = runSynthX86;
  else if (C.Workload == "matrix_replay")
    Run = runMatrixReplay;
  else if (C.Workload == "serve_mixed")
    Run = runServeMixed;
  else if (C.Workload == "store_restart")
    Run = runStoreRestart;
  else
    usage(("unknown workload " + C.Workload).c_str());

  ::mkdir(C.OutDir.c_str(), 0755);
  if (!readLines(C.RefDir + "/pool_exceptions.txt", C.Exceptions) ||
      !loadSynthReference(C.RefDir + "/synth_x86_unit.txt", C.SynthUnit) ||
      !loadSynthReference(C.RefDir + "/synth_x86.txt", C.SynthFig7)) {
    std::fprintf(stderr, "error: cannot read the reference answers in %s\n",
                 C.RefDir.c_str());
    return 1;
  }

  std::printf("# fingerprint: nproc=%u compiler=\"%s\" build_type=%s "
              "commit=%s host_kernel_ns=%.1f\n",
              std::thread::hardware_concurrency(), compilerName().c_str(),
              PERFBENCH_BUILD_TYPE, Commit.c_str(), hostKernelNs(0.1));
  std::printf("# workload: %s seed=%llu seconds=%g trace=%d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  std::fflush(stdout);

  Run(C);

  std::printf("# host_kernel_ns_after_run: %.1f\n", hostKernelNs(0.1));
  std::printf("# pool_digest: %016llx\n",
              static_cast<unsigned long long>(C.PoolDigest));
  std::printf("# request_stream_digest: %016llx\n",
              static_cast<unsigned long long>(C.StreamDigest));
  for (const auto &[K, V] : C.Report)
    std::printf("# %s: %s\n", K.c_str(), V.c_str());
  std::printf("# failed_frac: %.6g (%llu of %llu)\n",
              C.L.Attempted ? double(C.L.Failed) / double(C.L.Attempted) : 1.0,
              static_cast<unsigned long long>(C.L.Failed),
              static_cast<unsigned long long>(C.L.Attempted));
  for (const std::string &N : C.L.Notes)
    std::printf("# failure: %s\n", N.c_str());
  if (C.Trace) {
    // The two Baseline anomalies, as this run measured them.
    auto Get = [&](const char *Name) {
      const Metric *M = C.M.find(Name);
      return M ? M->Value : 0.0;
    };
    std::printf("# anomaly resident_vs_cold: server.inproc_batch_p50_ms=%.4f "
                "query.cold_engine_batch_ms=%.4f (resident/cold = %.3f)\n",
                Get("server.inproc_batch_p50_ms"),
                Get("query.cold_engine_batch_ms"),
                Get("query.cold_engine_batch_ms") > 0
                    ? Get("server.inproc_batch_p50_ms") /
                          Get("query.cold_engine_batch_ms")
                    : 0.0);
    for (const std::string &N : C.T.names()) {
      const SpanTotals &S = C.T.totals(N);
      std::printf("# span %-24s count=%-9llu total_ms=%-12.3f self_ms=%.3f\n",
                  N.c_str(), static_cast<unsigned long long>(S.Count),
                  double(S.TotalNs) * 1e-6, double(S.SelfNs) * 1e-6);
    }
  }
  for (const Metric &M : C.M.all())
    std::printf("# metric %s = %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += C.L.Failed == 0 && C.L.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(C.L.Attempted);
  Json += ", \"failed\": " + std::to_string(C.L.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : C.M.all()) {
    if (!First)
      Json += ", ";
    First = false;
    Json += jsonString(M.Name) + ": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
