//===- suite_pins.cpp - Pinned conformance suites past the test budget ---------==//
///
/// Synthesises the Forbid and Allow suites that are too slow for the unit
/// tests — x86 at |E| = 6, Power and ARMv8 at |E| = 4 — and compares each
/// with its pinned size and digest. The digest is `conformance_test`'s
/// suite digest: FNV-1a 64 over the sorted canonical hashes of the suite's
/// tests, each hash's eight bytes low byte first. A change to the search,
/// the relaxation order, the canonical encoding or the models that adds,
/// drops or swaps a test in any of these suites fails here.
///
/// `--jobs N` (or `TMW_BENCH_JOBS`) sets the search's worker count; a
/// complete search yields the same suite for every N. Writes the wall
/// times to `BENCH_suite_pins.json` and exits 1 on any mismatch.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/ModelRegistry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <string>
#include <vector>

using namespace tmw;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

uint64_t suiteDigest(const std::vector<Execution> &Tests) {
  std::vector<uint64_t> Hashes;
  for (const Execution &X : Tests)
    Hashes.push_back(canonicalHash(X));
  std::sort(Hashes.begin(), Hashes.end());
  uint64_t D = 1469598103934665603ull;
  for (uint64_t H : Hashes)
    for (unsigned Byte = 0; Byte < 8; ++Byte) {
      D ^= (H >> (8 * Byte)) & 0xFF;
      D *= 1099511628211ull;
    }
  return D;
}

struct SuitePin {
  const char *Spec;
  Arch A;
  unsigned Events;
  size_t Forbid, Allow;
  uint64_t ForbidDigest, AllowDigest;
};

const SuitePin kPins[] = {
    {"x86", Arch::X86, 6, 614, 4179, 0x5f961276a034f0c2, 0x8d95974b646a8e02},
    {"power", Arch::Power, 4, 111, 368, 0x58cde402d2b77cfa,
     0x052770e26ffefa07},
    {"armv8", Arch::Armv8, 4, 189, 602, 0x2082e78295f3e5da,
     0x088748fbc0196c6d},
};

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = bench::jobs(argc, argv, 4);
  bench::header("Pinned conformance suites (x86 |E| = 6, Power and ARMv8 "
                "|E| = 4)",
                "Table 1 Forbid/Allow suites, §4.2");
  std::printf("jobs: %u\n", Jobs);

  bool AllMatched = true;
  std::string Entries;
  for (const SuitePin &Pin : kPins) {
    std::unique_ptr<MemoryModel> Tm = ModelRegistry::parse(Pin.Spec);
    std::unique_ptr<MemoryModel> Baseline =
        ModelRegistry::parse(std::string(Pin.Spec) + "/+baseline");
    Vocabulary V = Vocabulary::forArch(Pin.A);
    ForbidSuite S =
        synthesizeForbid(*Tm, *Baseline, V, Pin.Events, 1e18, Jobs);
    auto T0 = std::chrono::steady_clock::now();
    std::vector<Execution> Allow = relaxationsOf(S.Tests, V);
    double RelaxSeconds = secondsSince(T0);
    uint64_t ForbidDigest = suiteDigest(S.Tests);
    uint64_t AllowDigest = suiteDigest(Allow);
    bool Matched = S.Complete && S.Tests.size() == Pin.Forbid &&
                   Allow.size() == Pin.Allow &&
                   ForbidDigest == Pin.ForbidDigest &&
                   AllowDigest == Pin.AllowDigest;
    AllMatched = AllMatched && Matched;
    std::printf("  %-5s |E| = %u: Forbid %zu (pinned %zu) digest 0x%016" PRIx64
                ", Allow %zu (pinned %zu) digest 0x%016" PRIx64
                "; search %.2fs, relax %.2fs  %s\n",
                Pin.Spec, Pin.Events, S.Tests.size(), Pin.Forbid, ForbidDigest,
                Allow.size(), Pin.Allow, AllowDigest, S.SynthesisSeconds,
                RelaxSeconds, Matched ? "matched" : "MISMATCH");
    char Entry[512];
    std::snprintf(
        Entry, sizeof(Entry),
        "%s\n    {\"search\": \"%s\", \"events\": %u, \"forbid\": %zu, "
        "\"allow\": %zu, \"forbid_digest\": \"0x%016" PRIx64
        "\", \"allow_digest\": \"0x%016" PRIx64 "\", \"complete\": %s, "
        "\"search_s\": %.4f, \"relax_s\": %.4f, \"matched\": %s}",
        Entries.empty() ? "" : ",", Pin.Spec, Pin.Events, S.Tests.size(),
        Allow.size(), ForbidDigest, AllowDigest,
        S.Complete ? "true" : "false", S.SynthesisSeconds, RelaxSeconds,
        Matched ? "true" : "false");
    Entries += Entry;
  }

  std::printf("all suites match their pins: %s\n", bench::yesNo(AllMatched));
  bench::writeBenchJson(
      "suite_pins", "{\"jobs\": " + std::to_string(Jobs) +
                        ", \"suites\": [" + Entries + "\n  ], \"matched\": " +
                        (AllMatched ? "true" : "false") + "}");
  return AllMatched ? 0 : 1;
}
