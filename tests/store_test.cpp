//===- store_test.cpp - Persistent content-addressed verdict store ---------------==//
///
/// Crash-safety and identity of store/VerdictStore.h: append/lookup/reopen
/// round trips, torn-tail truncation at open, checksum rejection of
/// corrupted records, engine-version-mismatch misses, compaction, strict
/// open diagnostics — and the contract the whole tier rides on:
/// cold-vs-warm byte identity of the canonical verdict JSON over the
/// corpus × spec matrix, serially and with concurrent server batches
/// sharing one store.
///
//===----------------------------------------------------------------------===//

#include "litmus/Library.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"
#include "server/QueryServer.h"
#include "store/VerdictStore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace tmw;

namespace {

/// A fresh per-test store path (the previous run's file, if any, removed).
std::string storePath(const char *Name) {
  std::string Path = testing::TempDir() + Name;
  ::unlink(Path.c_str());
  return Path;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
}

void appendBytes(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
}

// The on-disk framing, re-implemented independently of the store so the
// tests can craft records (duplicates, foreign versions) and corrupt
// them byte-precisely.
void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
uint64_t fnv1a64(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}
std::string frameRecord(const std::string &Key, const std::string &Value) {
  std::string Lens;
  putU32(Lens, static_cast<uint32_t>(Key.size()));
  putU32(Lens, static_cast<uint32_t>(Value.size()));
  uint64_t Sum =
      fnv1a64(fnv1a64(fnv1a64(14695981039346656037ull, Lens), Key), Value);
  std::string Out = Lens;
  putU64(Out, Sum);
  Out += Key;
  Out += Value;
  return Out;
}

std::string key(const char *Name, const char *Source,
                uint32_t Version = VerdictStore::kEngineVersion) {
  std::vector<std::string> Specs = {"x86", "power"};
  return VerdictStore::makeKey(Name, Source, Specs, /*Explain=*/false,
                               /*WantOutcomes=*/true, /*CandidateCap=*/0,
                               Version);
}

TEST(VerdictStore, RoundTripReopenAndCounters) {
  std::string Path = storePath("tmw_store_roundtrip.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;

  std::string K1 = key("A", "prog-a"), K2 = key("B", "prog-b");
  EXPECT_FALSE(S->lookup(K1).has_value()); // cold miss
  EXPECT_TRUE(S->append(K1, "{\"doc\": 1}"));
  EXPECT_TRUE(S->append(K2, "{\"doc\": 2}"));
  // Resident keys re-append as a no-op (entries are immutable).
  EXPECT_FALSE(S->append(K1, "{\"doc\": 1}"));
  ASSERT_TRUE(S->lookup(K1).has_value());
  EXPECT_EQ(*S->lookup(K1), "{\"doc\": 1}");
  EXPECT_EQ(*S->lookup(K2), "{\"doc\": 2}");

  StoreCounters C = S->counters();
  EXPECT_EQ(C.Appends, 2u);
  EXPECT_EQ(C.AppendErrors, 0u);
  EXPECT_EQ(C.Records, 2u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Hits, 3u);

  // Reopen: the index rebuilds from the log, answers intact.
  S.reset();
  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  C = S->counters();
  EXPECT_EQ(C.RecoveredRecords, 2u);
  EXPECT_EQ(C.Records, 2u);
  EXPECT_EQ(C.StaleRecords, 0u);
  EXPECT_EQ(C.TruncatedTailBytes, 0u);
  EXPECT_EQ(*S->lookup(K2), "{\"doc\": 2}");

  // Distinct names / sources / options never share a key.
  EXPECT_NE(key("A", "prog-a"), key("A", "prog-b"));
  EXPECT_NE(key("A", "prog-a"), key("B", "prog-a"));
  EXPECT_NE(key("A", "prog-a"),
            key("A", "prog-a", VerdictStore::kEngineVersion + 1));
  std::vector<std::string> Specs = {"x86"};
  EXPECT_NE(
      VerdictStore::makeKey("A", "s", Specs, false, true, 0),
      VerdictStore::makeKey("A", "s", Specs, true, true, 0));
  EXPECT_NE(
      VerdictStore::makeKey("A", "s", Specs, false, true, 0),
      VerdictStore::makeKey("A", "s", Specs, false, true, 7));
}

TEST(VerdictStore, TornTailTruncatedAtOpen) {
  std::string Path = storePath("tmw_store_torn.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  std::string K = key("A", "prog-a");
  ASSERT_TRUE(S->append(K, "{\"doc\": 1}"));
  S.reset();

  // A crash mid-append leaves a partial record: simulate with half a
  // framed record's worth of garbage.
  size_t CleanBytes = readFile(Path).size();
  appendBytes(Path, std::string("\x07\x00\x00\x00garbage-tail", 16));

  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  StoreCounters C = S->counters();
  EXPECT_EQ(C.RecoveredRecords, 1u);
  EXPECT_EQ(C.TruncatedTailBytes, 16u);
  EXPECT_EQ(*S->lookup(K), "{\"doc\": 1}"); // the clean prefix survives
  // The file really was truncated back to the last valid record...
  EXPECT_EQ(readFile(Path).size(), CleanBytes);
  // ... and appends continue cleanly after recovery.
  std::string K2 = key("B", "prog-b");
  EXPECT_TRUE(S->append(K2, "{\"doc\": 2}"));
  S.reset();
  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  EXPECT_EQ(S->counters().RecoveredRecords, 2u);
  EXPECT_EQ(S->counters().TruncatedTailBytes, 0u);
  EXPECT_EQ(*S->lookup(K2), "{\"doc\": 2}");
}

TEST(VerdictStore, CorruptedRecordRejectedByChecksum) {
  std::string Path = storePath("tmw_store_corrupt.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  std::string K1 = key("A", "prog-a"), K2 = key("B", "prog-b");
  ASSERT_TRUE(S->append(K1, "{\"doc\": 1}"));
  ASSERT_TRUE(S->append(K2, "{\"doc\": 2}"));
  S.reset();

  // Flip one byte inside the *second* record's value (the last byte of
  // the file): its checksum no longer validates, so recovery keeps the
  // first record and truncates the second as garbage.
  std::string Data = readFile(Path);
  Data.back() = static_cast<char>(Data.back() ^ 0x01);
  writeFile(Path, Data);

  // The read-only fsck view reports the damage without modifying the file.
  StoreScan Scan = VerdictStore::scan(Path, nullptr);
  EXPECT_TRUE(Scan.Error.empty()) << Scan.Error;
  EXPECT_EQ(Scan.ValidRecords, 1u);
  EXPECT_GT(Scan.TailBytes, 0u);
  EXPECT_FALSE(Scan.clean());
  EXPECT_EQ(readFile(Path), Data); // scan never writes

  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  StoreCounters C = S->counters();
  EXPECT_EQ(C.RecoveredRecords, 1u);
  EXPECT_GT(C.TruncatedTailBytes, 0u);
  EXPECT_TRUE(S->lookup(K1).has_value());
  EXPECT_FALSE(S->lookup(K2).has_value()); // dropped work, re-evaluates
}

TEST(VerdictStore, EngineVersionMismatchMisses) {
  std::string Path = storePath("tmw_store_version.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  // A record stamped by a "previous engine": same query, old version.
  std::string OldKey = key("A", "prog-a", /*Version=*/0);
  std::string NewKey = key("A", "prog-a");
  ASSERT_TRUE(S->append(OldKey, "{\"stale\": true}"));
  S.reset();

  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  StoreCounters C = S->counters();
  EXPECT_EQ(C.RecoveredRecords, 1u);
  EXPECT_EQ(C.StaleRecords, 1u);
  EXPECT_EQ(C.Records, 0u); // never indexed, can never be served
  EXPECT_FALSE(S->lookup(NewKey).has_value());

  // The current engine re-evaluates and stores under its own stamp; both
  // generations coexist in the log until compaction.
  EXPECT_TRUE(S->append(NewKey, "{\"fresh\": true}"));
  StoreScan Scan = VerdictStore::scan(Path, nullptr);
  EXPECT_EQ(Scan.ValidRecords, 2u);
  EXPECT_EQ(Scan.StaleRecords, 1u);
}

TEST(VerdictStore, CompactDropsStaleDuplicatesAndTail) {
  std::string Path = storePath("tmw_store_compact.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  std::string Keep = key("A", "prog-a");
  ASSERT_TRUE(S->append(Keep, "{\"doc\": 1}"));
  ASSERT_TRUE(S->append(key("B", "prog-b", /*Version=*/0), "{\"old\": 1}"));
  S.reset();

  // Hand-craft what one handle can't produce: a byte-identical duplicate
  // record (two processes racing the same cold key) and a torn tail.
  appendBytes(Path, frameRecord(Keep, "{\"doc\": 1}"));
  appendBytes(Path, "torn!");

  StoreScan Before;
  ASSERT_TRUE(VerdictStore::compact(Path, &Before, &Error)) << Error;
  EXPECT_EQ(Before.ValidRecords, 3u);
  EXPECT_EQ(Before.StaleRecords, 1u);
  EXPECT_EQ(Before.DuplicateRecords, 1u);
  EXPECT_EQ(Before.TailBytes, 5u);

  // The rewritten log is clean and still answers.
  StoreScan After = VerdictStore::scan(Path, nullptr);
  EXPECT_TRUE(After.clean()) << After.Error;
  EXPECT_EQ(After.ValidRecords, 1u);
  EXPECT_EQ(After.StaleRecords, 0u);
  EXPECT_EQ(After.DuplicateRecords, 0u);
  S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;
  EXPECT_EQ(*S->lookup(Keep), "{\"doc\": 1}");
}

TEST(VerdictStore, OpenAndScanDiagnostics) {
  // Unwritable path: one-line error, no store (callers exit 2 on this).
  std::string Error;
  EXPECT_EQ(VerdictStore::open("/nonexistent-dir/tmw.store", &Error),
            nullptr);
  EXPECT_FALSE(Error.empty());

  // A foreign/corrupt header is refused, not mis-parsed as records.
  std::string Foreign = storePath("tmw_store_foreign.store");
  writeFile(Foreign, "definitely not a verdict store, long enough header");
  Error.clear();
  EXPECT_EQ(VerdictStore::open(Foreign, &Error), nullptr);
  EXPECT_NE(Error.find("not a tmw verdict store"), std::string::npos)
      << Error;
  EXPECT_NE(VerdictStore::scan(Foreign, nullptr).Error.find(
                "not a tmw verdict store"),
            std::string::npos);

  // A future format version is refused with both versions named.
  std::string Future = storePath("tmw_store_future.store");
  std::string Header = "TMWSTORE";
  putU32(Header, 99);
  putU32(Header, 0);
  writeFile(Future, Header);
  Error.clear();
  EXPECT_EQ(VerdictStore::open(Future, &Error), nullptr);
  EXPECT_NE(Error.find("format version 99"), std::string::npos) << Error;

  // An empty-but-created store reopens cleanly (header written at create).
  std::string Fresh = storePath("tmw_store_fresh.store");
  ASSERT_TRUE(VerdictStore::open(Fresh, &Error)) << Error;
  EXPECT_TRUE(VerdictStore::scan(Fresh, nullptr).clean());
}

/// The acceptance workload: every corpus program against the model ×
/// ablation spec matrix, outcomes and explanations on.
std::vector<CheckRequest> matrixBatch() {
  const std::vector<std::string> Specs = {
      "sc",      "tsc", "x86",           "power",
      "armv8",   "cpp", "power/-TxnOrder", "x86/+baseline",
      "power8"};
  std::vector<CheckRequest> Requests;
  for (const CorpusEntry &E : sharedCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = Specs;
    R.Explain = true;
    R.WantOutcomes = true;
    Requests.push_back(std::move(R));
  }
  return Requests;
}

TEST(VerdictStore, ColdAndWarmRunsMatchStorelessBytes) {
  // The verdict-neutrality contract: a store-less run, a cold run that
  // fills the store, and a warm run served from it emit byte-identical
  // canonical JSON — across jobs counts.
  std::vector<CheckRequest> Requests = matrixBatch();
  std::string Reference =
      responsesToJson(QueryEngine({.Jobs = 1}).runAll(Requests));

  for (unsigned Jobs : {1u, 4u}) {
    std::string Path = storePath(
        ("tmw_store_identity_j" + std::to_string(Jobs) + ".store").c_str());
    std::string Error;

    auto Cold = VerdictStore::open(Path, &Error);
    ASSERT_TRUE(Cold) << Error;
    BatchOptions ColdOpts;
    ColdOpts.Jobs = Jobs;
    ColdOpts.Store = Cold.get();
    std::vector<CheckResponse> ColdResponses =
        QueryEngine(ColdOpts).runAll(Requests);
    EXPECT_EQ(responsesToJson(ColdResponses), Reference) << "jobs " << Jobs;
    StoreCounters C = Cold->counters();
    EXPECT_EQ(C.Hits, 0u);
    EXPECT_EQ(C.Misses, Requests.size());
    EXPECT_EQ(C.Appends, Requests.size());
    EXPECT_EQ(C.AppendErrors, 0u);
    for (const CheckResponse &R : ColdResponses) {
      EXPECT_EQ(R.Store.Lookups, 1u);
      EXPECT_EQ(R.Store.Hits, 0u);
      EXPECT_EQ(R.Store.Appends, 1u);
    }
    Cold.reset();

    // Warm process: a fresh open of the same file answers every request
    // from the log, byte-identically.
    auto Warm = VerdictStore::open(Path, &Error);
    ASSERT_TRUE(Warm) << Error;
    EXPECT_EQ(Warm->counters().RecoveredRecords, Requests.size());
    BatchOptions WarmOpts;
    WarmOpts.Jobs = Jobs;
    WarmOpts.Store = Warm.get();
    std::vector<CheckResponse> WarmResponses =
        QueryEngine(WarmOpts).runAll(Requests);
    EXPECT_EQ(responsesToJson(WarmResponses), Reference) << "jobs " << Jobs;
    C = Warm->counters();
    EXPECT_EQ(C.Hits, Requests.size());
    EXPECT_EQ(C.Misses, 0u);
    EXPECT_EQ(C.Appends, 0u);
    for (const CheckResponse &R : WarmResponses) {
      EXPECT_EQ(R.Store.Hits, 1u);
      EXPECT_EQ(R.Store.Appends, 0u);
    }
  }
}

TEST(VerdictStore, ErrorResponsesAreNeverStored) {
  // A request that fails to resolve produces an error response; storing
  // it would freeze a transient failure. It must not land.
  std::string Path = storePath("tmw_store_errors.store");
  std::string Error;
  auto S = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(S) << Error;

  std::vector<CheckRequest> Requests;
  CheckRequest Bad;
  Bad.Name = "bad-spec";
  Bad.Corpus = "SB";
  Bad.ModelSpecs = {"not-a-model"};
  Requests.push_back(Bad);
  CheckRequest Fine;
  Fine.Corpus = "SB";
  Fine.WantOutcomes = true;
  Requests.push_back(Fine);

  BatchOptions Opts;
  Opts.Store = S.get();
  std::string WithStore =
      responsesToJson(QueryEngine(Opts).runAll(Requests));
  EXPECT_EQ(WithStore,
            responsesToJson(QueryEngine(BatchOptions{}).runAll(Requests)));
  EXPECT_EQ(S->counters().Appends, 1u); // only the good request landed
  EXPECT_EQ(S->counters().Records, 1u);
}

TEST(VerdictStore, ConcurrentServerBatchesShareOneStore) {
  // The multiplexer's shape: rival batches on one resident pool, one
  // shared store. Every served document must match the store-less
  // reference; afterwards the store holds exactly the distinct keys.
  std::vector<CheckRequest> Requests;
  CheckRequest A;
  A.Source = "name SB-inline\nthread 0\n  store x 1\n  load y\nthread 1\n"
             "  store y 1\n  load x\npost reg 0 r1 0\npost reg 1 r1 0\n";
  A.ModelSpecs = {"x86", "power/-TxnOrder", "power8"};
  A.Explain = true;
  A.WantOutcomes = true;
  Requests.push_back(A);
  CheckRequest B;
  B.Corpus = "MP";
  B.WantOutcomes = true;
  Requests.push_back(B);
  std::string Line = requestsToJsonLine(Requests);
  std::string Reference =
      responsesToJson(QueryEngine({.Jobs = 1}).runAll(Requests));

  std::string Path = storePath("tmw_store_server.store");
  std::string Error;
  auto Store = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;

  constexpr unsigned Clients = 4, BatchesPerClient = 5;
  {
    ServerOptions Opts;
    Opts.Jobs = 4;
    Opts.Store = Store.get();
    QueryServer S(Opts);
    std::vector<std::thread> Threads;
    std::vector<unsigned> Bad(Clients, 0);
    for (unsigned T = 0; T < Clients; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; I < BatchesPerClient; ++I)
          if (S.serveLine(Line) != Reference)
            ++Bad[T];
      });
    for (std::thread &T : Threads)
      T.join();
    for (unsigned T = 0; T < Clients; ++T)
      EXPECT_EQ(Bad[T], 0u) << "client " << T << " diverged";

    ServerStats St = S.stats();
    EXPECT_TRUE(St.HasStore);
    EXPECT_EQ(St.Store.Hits + St.Store.Misses,
              uint64_t{Clients} * BatchesPerClient * Requests.size());
    EXPECT_GT(St.Store.Hits, 0u);
    EXPECT_EQ(St.Store.Appends, Requests.size()); // one record per key
    EXPECT_EQ(St.Store.Records, Requests.size());
  }

  // A restarted server inherits every answer.
  Store.reset();
  Store = VerdictStore::open(Path, &Error);
  ASSERT_TRUE(Store) << Error;
  EXPECT_EQ(Store->counters().RecoveredRecords, Requests.size());
  ServerOptions Opts;
  Opts.Jobs = 2;
  Opts.Store = Store.get();
  QueryServer S2(Opts);
  EXPECT_EQ(S2.serveLine(Line), Reference);
  ServerStats St = S2.stats();
  EXPECT_EQ(St.Store.Hits, Requests.size());
  EXPECT_EQ(St.Store.Misses, 0u);
}

} // namespace
