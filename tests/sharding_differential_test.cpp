//===- sharding_differential_test.cpp - WS synthesis vs sequential DFS --------==//
///
/// The contract the work-stealing synthesis rests on, checked
/// differentially against the plain sequential enumeration:
///
///  * prefix tasks partition the base space *exactly* — no base visited
///    twice, none missed — at any split depth;
///  * `synthesizeForbid` produces the identical canonical test set for
///    every `Jobs` value (canonical-hash multiset equality, not just
///    counts);
///  * the merged suite is byte-for-byte deterministic: hash-sorted order
///    and least-concrete-key representatives, so even the `Execution`
///    dumps agree across worker counts.
///
//===----------------------------------------------------------------------===//

#include "synth/Conformance.h"

#include "models/ModelRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace tmw;

namespace {

constexpr unsigned kJobsValues[] = {1, 2, 3, 7, 16};

struct Workload {
  const char *Spec;
  Arch A;
  unsigned NumEvents;
};

// One vocabulary per paper target family: x86 (TSO), Power (deps +
// fence flavours), C++ (consistency modes + atomic{} transactions).
const Workload kWorkloads[] = {
    {"x86", Arch::X86, 4},
    {"power", Arch::Power, 3},
    {"cpp", Arch::Cpp, 3},
};

class ShardingDifferentialTest : public ::testing::TestWithParam<size_t> {
protected:
  Workload workload() const { return kWorkloads[GetParam()]; }
  Vocabulary vocab() const { return Vocabulary::forArch(workload().A); }

  std::unique_ptr<MemoryModel> tm() const {
    return ModelRegistry::parse(workload().Spec);
  }
  std::unique_ptr<MemoryModel> baseline() const {
    return ModelRegistry::parse(std::string(workload().Spec) + "/+baseline");
  }

  ForbidSuite synth(unsigned Jobs) const {
    return synthesizeForbid(*tm(), *baseline(), vocab(),
                            workload().NumEvents, /*BudgetSeconds=*/1e18,
                            Jobs);
  }

  /// The reference: a hand-rolled sequential `forEachBase` search with no
  /// prefix tasks, no pool, no dedup — the ground truth the parallel
  /// search must reproduce.
  struct Reference {
    uint64_t Bases = 0;
    /// Sorted multiset of canonical hashes of all minimal Forbid
    /// placements (duplicates from symmetric representatives included).
    std::vector<uint64_t> AllHashes;
    /// Sorted, deduplicated canonical test set.
    std::vector<uint64_t> TestSet;
  };

  Reference sequentialReference() const {
    Reference Ref;
    std::unique_ptr<MemoryModel> Tm = tm(), Base = baseline();
    Vocabulary V = vocab();
    ExecutionEnumerator Enum(V, workload().NumEvents);
    Enum.forEachBase([&](Execution &B) {
      ++Ref.Bases;
      if (!Base->consistent(B))
        return true;
      return Enum.forEachTxnPlacement(B, [&](Execution &X) {
        if (!Tm->consistent(X))
          if (isMinimallyInconsistent(X, *Tm, V))
            Ref.AllHashes.push_back(canonicalHash(X));
        return true;
      });
    });
    std::sort(Ref.AllHashes.begin(), Ref.AllHashes.end());
    Ref.TestSet = Ref.AllHashes;
    Ref.TestSet.erase(std::unique(Ref.TestSet.begin(), Ref.TestSet.end()),
                      Ref.TestSet.end());
    return Ref;
  }
};

std::vector<uint64_t> suiteHashes(const ForbidSuite &S) {
  std::vector<uint64_t> H;
  for (const Execution &X : S.Tests)
    H.push_back(canonicalHash(X));
  return H;
}

TEST_P(ShardingDifferentialTest, IdenticalTestSetForEveryJobsValue) {
  Reference Ref = sequentialReference();
  ASSERT_FALSE(Ref.TestSet.empty());
  for (unsigned Jobs : kJobsValues) {
    ForbidSuite S = synth(Jobs);
    EXPECT_TRUE(S.Complete);
    // Canonical-hash multiset equality against the sequential search: the
    // suite is deduplicated, so its hash multiset must equal the
    // reference *set* element-for-element (not merely in size).
    EXPECT_EQ(suiteHashes(S), Ref.TestSet) << "Jobs=" << Jobs;
    // Exact partition: every base visited exactly once.
    EXPECT_EQ(S.BasesVisited, Ref.Bases) << "Jobs=" << Jobs;
  }
}

TEST_P(ShardingDifferentialTest, ByteForByteDeterministicAcrossJobs) {
  // Regression for the determinism guarantee: representatives and order —
  // not just the canonical set — are identical for every Jobs value.
  // Compare full dumps.
  std::vector<std::string> RefDumps;
  for (const Execution &X : synth(1).Tests)
    RefDumps.push_back(X.dump());
  for (unsigned Jobs : kJobsValues) {
    std::vector<std::string> Dumps;
    for (const Execution &X : synth(Jobs).Tests)
      Dumps.push_back(X.dump());
    EXPECT_EQ(Dumps, RefDumps) << "Jobs=" << Jobs;
  }
}

TEST_P(ShardingDifferentialTest, TestsAreSortedByCanonicalHash) {
  ForbidSuite S = synth(3);
  std::vector<uint64_t> H = suiteHashes(S);
  EXPECT_TRUE(std::is_sorted(H.begin(), H.end()));
  EXPECT_EQ(std::adjacent_find(H.begin(), H.end()), H.end())
      << "duplicate canonical hash survived the merge";
  ASSERT_EQ(S.FoundAtSeconds.size(), S.Tests.size());
}

TEST_P(ShardingDifferentialTest, PrefixTasksPartitionTheBaseSpace) {
  // Decompose the space into prefix tasks exactly as the pool does —
  // split while above a deliberately tiny target cost, to force deep,
  // uneven frontiers — then check the union of the leaves' bases equals
  // the sequential enumeration: same count, same structural-hash
  // multiset. No base twice, none missed.
  Vocabulary V = vocab();
  ExecutionEnumerator Enum(V, workload().NumEvents);

  std::multiset<uint64_t> Sequential;
  Enum.forEachBase([&](Execution &X) {
    Sequential.insert(X.hash());
    return true;
  });

  std::multiset<uint64_t> Prefixed;
  uint64_t Leaves = 0;
  std::vector<BasePrefix> Stack;
  Enum.forEachSkeleton([&](const std::vector<unsigned> &Sizes) {
    Stack.push_back({Sizes, {}});
  });
  while (!Stack.empty()) {
    BasePrefix P = std::move(Stack.back());
    Stack.pop_back();
    if (P.Labels.size() < Enum.numEvents() && Enum.estimateCost(P) > 32.0) {
      for (BasePrefix &C : Enum.expandPrefix(P))
        Stack.push_back(std::move(C));
      continue;
    }
    ++Leaves;
    Enum.forEachBasePrefixed(P, [&](Execution &X) {
      Prefixed.insert(X.hash());
      return true;
    });
  }

  EXPECT_GT(Leaves, 16u) << "split target too lax to stress partitioning";
  EXPECT_EQ(Prefixed.size(), Sequential.size());
  EXPECT_EQ(Prefixed, Sequential);
}

TEST_P(ShardingDifferentialTest, WorkerTelemetryIsConsistent) {
  ForbidSuite S = synth(7);
  ASSERT_EQ(S.Workers.size(), 7u);
  uint64_t Bases = 0, Tasks = 0;
  for (const WorkerLoad &L : S.Workers) {
    Bases += L.BasesVisited;
    Tasks += L.Tasks;
    EXPECT_GE(L.BusySeconds, 0.0);
  }
  EXPECT_EQ(Bases, S.BasesVisited);
  EXPECT_GT(Tasks, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVocabularies, ShardingDifferentialTest,
                         ::testing::Range<size_t>(0, std::size(kWorkloads)),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string Name = kWorkloads[Info.param].Spec;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

} // namespace
