//===- conformance_test.cpp - Forbid/Allow suite synthesis (§4.2, §5.3) -------==//

#include "synth/Conformance.h"

#include "enumerate/Relaxation.h"
#include "hw/ImplModel.h"
#include "hw/LitmusRunner.h"
#include "hw/TsoMachine.h"
#include "litmus/FromExecution.h"
#include "litmus/Printer.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace tmw;

namespace {

ForbidSuite x86Suite(unsigned N) {
  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  return synthesizeForbid(Tm, *Baseline, V, N, 300.0);
}

TEST(ForbidTest, X86TwoEventsEmpty) {
  // Table 1: no forbidden test with only 2 events on x86 (matching the
  // paper's 0 at |E|=2).
  ForbidSuite S = x86Suite(2);
  EXPECT_TRUE(S.Complete);
  EXPECT_TRUE(S.Tests.empty());
}

TEST(ForbidTest, X86ThreeEventsNonEmpty) {
  ForbidSuite S = x86Suite(3);
  EXPECT_TRUE(S.Complete);
  EXPECT_FALSE(S.Tests.empty());
  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  for (const Execution &X : S.Tests) {
    // Forbidden by the TM model, allowed by the baseline, minimal.
    EXPECT_FALSE(Tm.consistent(X));
    EXPECT_TRUE(Baseline->consistent(X));
    EXPECT_TRUE(isMinimallyInconsistent(X, Tm, V));
    // Conformance tests always exercise a transaction.
    EXPECT_GE(X.numTxns(), 1u);
  }
}

/// FNV-1a 64 over the sorted canonical hashes of \p Tests (each hash's
/// eight bytes, low byte first): a suite's identity, independent of the
/// order the search found its tests in.
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

/// One pinned search: the Forbid and Allow suite sizes at one |E|, and
/// the digests of both suites.
struct SuitePin {
  unsigned Events;
  size_t Forbid, Allow;
  uint64_t ForbidDigest, AllowDigest;
};

void expectPinned(const char *Tm, Arch A,
                  std::initializer_list<SuitePin> Pins) {
  std::unique_ptr<MemoryModel> Model = ModelRegistry::parse(Tm);
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse(std::string(Tm) + "/+baseline");
  Vocabulary V = Vocabulary::forArch(A);
  for (const SuitePin &Want : Pins) {
    SCOPED_TRACE(std::string(Tm) + " |E| = " + std::to_string(Want.Events));
    ForbidSuite S = synthesizeForbid(*Model, *Baseline, V, Want.Events, 300.0);
    ASSERT_TRUE(S.Complete);
    std::vector<Execution> Allow = relaxationsOf(S.Tests, V);
    EXPECT_EQ(S.Tests.size(), Want.Forbid);
    EXPECT_EQ(Allow.size(), Want.Allow);
    EXPECT_EQ(suiteDigest(S.Tests), Want.ForbidDigest);
    EXPECT_EQ(suiteDigest(Allow), Want.AllowDigest);
  }
}

TEST(ForbidTest, X86SuiteSizesPinned) {
  // Forbid and Allow suites of the x86 search at |E| = 2 to 5 (the
  // |E| = 4 pair is also perfbench's synth_x86 reference). A refactor of
  // the search, the relaxation order or the relation layer that drops,
  // adds or swaps a test fails here: the digests name the tests.
  expectPinned("x86", Arch::X86,
               {{2, 0, 0, 0x14650fb0739d0383, 0x14650fb0739d0383},
                {3, 4, 17, 0x419a32e25ac3808a, 0xde2e72da9908b179},
                {4, 39, 184, 0x5bec854e1c3bccf6, 0x77e32f437972ac7c},
                {5, 60, 350, 0x87df420186f7dede, 0x3cd560dded18b100}});
}

TEST(ForbidTest, PowerAndArmv8SuiteSizesPinned) {
  // The Power and ARMv8 searches at |E| = 2 and 3. At these sizes both
  // find the same minimal tests (and so the x86 ones at |E| = 3).
  for (auto [Tm, A] : {std::pair{"power", Arch::Power},
                       std::pair{"armv8", Arch::Armv8}})
    expectPinned(Tm, A,
                 {{2, 2, 7, 0x2ef305228b252dc8, 0xba1e4f9c3cce23c8},
                  {3, 4, 17, 0x419a32e25ac3808a, 0xde2e72da9908b179}});
}

TEST(ForbidTest, CppSuiteSizesPinned) {
  // The C++ search at |E| = 2 and 3: the only pinned suites whose
  // placements carry atomic{} flags, so the only ones whose minimality
  // checks read atomic{} downgrades.
  expectPinned("cpp", Arch::Cpp,
               {{2, 0, 0, 0x14650fb0739d0383, 0x14650fb0739d0383},
                {3, 4, 21, 0x6fe55b52ff229bf2, 0xc86914b31dacd003}});
}

TEST(ForbidTest, FoundTimesMonotoneAndBounded) {
  ForbidSuite S = x86Suite(3);
  ASSERT_EQ(S.FoundAtSeconds.size(), S.Tests.size());
  for (double T : S.FoundAtSeconds) {
    EXPECT_GE(T, 0.0);
    EXPECT_LE(T, S.SynthesisSeconds + 1e-9);
  }
}

TEST(ForbidTest, BudgetAbortsCleanly) {
  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ForbidSuite S = synthesizeForbid(Tm, *Baseline, V, 5, 0.0);
  EXPECT_FALSE(S.Complete);
}

TEST(AllowTest, RelaxationsAreConsistent) {
  ForbidSuite S = x86Suite(3);
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  std::vector<Execution> Allow = relaxationsOf(S.Tests, V);
  EXPECT_FALSE(Allow.empty());
  X86Model Tm;
  for (const Execution &X : Allow)
    EXPECT_TRUE(Tm.consistent(X)) << X.dump();
}

TEST(AllowTest, IncludesSmallerEventCounts) {
  ForbidSuite S = x86Suite(3);
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  bool SawSmaller = false;
  for (const Execution &X : relaxationsOf(S.Tests, V))
    SawSmaller |= X.size() == 2;
  // Event-removal relaxations of 3-event tests have 2 events — this is
  // how Table 1 reports Allow tests at |E|=2 with zero Forbid tests.
  EXPECT_TRUE(SawSmaller);
}

TEST(ConformanceRunTest, NoForbidTestObservableOnTso) {
  // §5.3: "No Forbid test was empirically observable on either
  // architecture" — on the simulated TSX machine. Observability of the
  // *forbidden behaviour* is what counts: with three writes to one
  // location the postcondition alone cannot pin the coherence order
  // (footnote 2), so outcomes with a model-consistent explanation are
  // benign.
  ForbidSuite S = x86Suite(3);
  X86Model Tm;
  for (const Execution &X : S.Tests) {
    Program P = programFromExecution(X, "forbid").Prog;
    TsoMachine M(P);
    EXPECT_FALSE(observedForbiddenBehaviour(P, Tm, M.reachableOutcomes()))
        << printGeneric(P);
  }
}

TEST(ConformanceRunTest, MostAllowTestsSeenOnTso) {
  // §5.3: 83% of the x86 Allow tests were observable. The simulated
  // machine is a sound TSO implementation, so a clear majority should be
  // seen (the precise fraction depends on machine conservatism).
  ForbidSuite S = x86Suite(3);
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  std::vector<Execution> Allow = relaxationsOf(S.Tests, V);
  unsigned Seen = 0, Total = 0;
  for (const Execution &X : Allow) {
    Program P = programFromExecution(X, "allow").Prog;
    TsoMachine M(P);
    ++Total;
    Seen += M.postconditionObservable();
  }
  ASSERT_GT(Total, 0u);
  EXPECT_GT(Seen * 2, Total); // more than half seen
}

TEST(ConformanceRunTest, PowerForbidNotObservableOnImpl) {
  PowerModel Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("power/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::Power);
  ForbidSuite S = synthesizeForbid(Tm, *Baseline, V, 3, 300.0);
  ImplModel P8 = ImplModel::power8();
  for (const Execution &X : S.Tests) {
    Program P = programFromExecution(X, "forbid").Prog;
    RunReport R = runOnImpl(P, P8, 1000);
    EXPECT_FALSE(observedForbiddenBehaviour(P, Tm, outcomesOf(R)))
        << printGeneric(P);
  }
}

TEST(HistogramTest, TxnCountBreakdown) {
  ForbidSuite S = x86Suite(3);
  std::vector<unsigned> H = txnCountHistogram(S.Tests);
  unsigned Total = 0;
  for (unsigned I = 1; I < H.size(); ++I)
    Total += H[I];
  EXPECT_EQ(Total, S.Tests.size());
  if (!H.empty()) {
    EXPECT_EQ(H[0], 0u); // every test has >= 1 txn
  }
}

} // namespace
