//===- cpp_test.cpp - C++ (RC11) with transactions (Fig. 9, §7) ---------------==//

#include "TestGraphs.h"
#include "models/CppModel.h"
#include "models/ModelRegistry.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(CppTest, RelaxedStoreBufferingAllowed) {
  CppModel M;
  EXPECT_TRUE(M.consistent(shapes::storeBuffering(MemOrder::Relaxed)));
}

TEST(CppTest, SeqCstStoreBufferingForbidden) {
  CppModel M;
  ConsistencyResult R = M.check(shapes::storeBuffering(MemOrder::SeqCst));
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "SeqCst");
}

TEST(CppTest, ReleaseAcquireMessagePassingForbidden) {
  // Wy(rel) read by Ry(acq) synchronises: the stale Rx contradicts hb.
  CppModel M;
  EXPECT_FALSE(M.consistent(
      shapes::messagePassing(MemOrder::Release, MemOrder::Acquire)));
}

TEST(CppTest, RelaxedMessagePassingAllowed) {
  CppModel M;
  EXPECT_TRUE(M.consistent(
      shapes::messagePassing(MemOrder::Relaxed, MemOrder::Relaxed)));
}

TEST(CppTest, NoThinAirForbidsRelaxedLbCycle) {
  // RC11 forbids po u rf cycles outright.
  ExecutionBuilder B;
  EventId Rx = B.read(0, 0, MemOrder::Relaxed);
  EventId Wy = B.write(0, 1, MemOrder::Relaxed, 1);
  EventId Ry = B.read(1, 1, MemOrder::Relaxed);
  EventId Wx = B.write(1, 0, MemOrder::Relaxed, 1);
  B.rf(Wy, Ry);
  B.rf(Wx, Rx);
  CppModel M;
  ConsistencyResult R = M.check(B.build());
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "NoThinAir");
}

TEST(CppTest, CoherenceViaHbCom) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::Relaxed, 1);
  EventId W2 = B.write(0, 0, MemOrder::Relaxed, 2);
  EventId R = B.read(0, 0, MemOrder::Relaxed);
  B.rf(W1, R); // po-later read observes the po-earlier write: stale
  (void)W2;
  CppModel M;
  ConsistencyResult Res = M.check(B.build());
  EXPECT_FALSE(Res.Consistent);
  EXPECT_EQ(Res.FailedAxiom, "HbCom");
}

TEST(CppTest, ReleaseSequenceThroughRmw) {
  // W(rel) followed by a relaxed RMW; an acquire read of the RMW's write
  // still synchronises with the release write (release sequence).
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, MemOrder::Release, 1);
  EventId Ry = B.read(1, 1, MemOrder::Relaxed);
  EventId Wy2 = B.write(1, 1, MemOrder::Relaxed, 2);
  B.rmw(Ry, Wy2);
  B.rf(Wy, Ry);
  EventId Ry2 = B.read(2, 1, MemOrder::Acquire);
  B.rf(Wy2, Ry2);
  EventId Rx = B.read(2, 0); // must see Wx
  (void)Rx;                  // reads initial x: forbidden
  B.rf(Wy, Ry);
  (void)Wx;
  CppModel M;
  EXPECT_FALSE(M.consistent(B.build()));
}

TEST(CppTest, RaceDetection) {
  // Two unordered non-atomic accesses to x race.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  CppModel M;
  Execution X = B.build();
  EXPECT_TRUE(M.consistent(X));
  EXPECT_FALSE(M.raceFree(X));
}

TEST(CppTest, SynchronisedAccessesDoNotRace) {
  CppModel M;
  // MP with rel/acq and the reader actually seeing the data.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, MemOrder::Release, 1);
  EventId Ry = B.read(1, 1, MemOrder::Acquire);
  EventId Rx = B.read(1, 0);
  B.rf(Wy, Ry);
  B.rf(Wx, Rx);
  Execution X = B.build();
  EXPECT_TRUE(M.consistent(X));
  EXPECT_TRUE(M.raceFree(X));
}

TEST(CppTest, AtomicAccessesNeverRace) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::Relaxed, 1);
  B.read(1, 0, MemOrder::Relaxed);
  CppModel M;
  EXPECT_TRUE(M.raceFree(B.build()));
}

//===----------------------------------------------------------------------===
// TM extension (§7.2).
//===----------------------------------------------------------------------===

TEST(CppTmTest, TransactionalMessagePassingForbidden) {
  // Conflicting transactions synchronise in ecom order (tsw): seeing the
  // transaction's y but stale x is forbidden.
  Execution X = shapes::dongolComparison();
  CppModel M;
  ConsistencyResult R = M.check(X);
  EXPECT_FALSE(R.Consistent);
  EXPECT_EQ(R.FailedAxiom, "HbCom");

  // Without tsw (the baseline C++ model) the shape is allowed — and racy.
  EXPECT_TRUE(ModelRegistry::parse("cpp/+baseline")->consistent(X));
}

TEST(CppTmTest, TswMakesTransactionsRaceFree) {
  // Conflicting transactions are ordered by tsw, so their non-atomic
  // contents do not race.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  B.rf(Wx, Rx);
  B.txn({Wx});
  B.txn({Rx});
  Execution X = B.build();
  CppModel M;
  EXPECT_TRUE(M.consistent(X));
  EXPECT_TRUE(M.raceFree(X));
  // Remove the transactions: immediately racy.
  CppModel Baseline;
  ASSERT_TRUE(Baseline.setAxiomEnabled("Tsw", false));
  EXPECT_FALSE(Baseline.raceFree(X));
}

TEST(CppTmTest, TransactionVsAtomicStoreIsRacy) {
  // §7.2: atomic{ x=1; } vs atomic_store(&x, 2) is racy — the definition
  // of race is unchanged by TM.
  ExecutionBuilder B;
  EventId Wt = B.write(0, 0, MemOrder::NonAtomic, 1); // inside atomic{}
  EventId Wa = B.write(1, 0, MemOrder::SeqCst, 2);    // atomic store
  B.txn({Wt}, /*Atomic=*/true);
  (void)Wa;
  Execution X = B.build();
  CppModel M;
  EXPECT_TRUE(M.consistent(X));
  EXPECT_FALSE(M.raceFree(X));
}

TEST(CppTmTest, WeakIsolFollowsFromConsistency) {
  // §7.2: the WeakIsol axiom follows from the other C++ axioms — any
  // consistent execution satisfies it. Spot-check on the shapes used in
  // this file.
  CppModel M;
  for (const Execution &X :
       {shapes::storeBuffering(MemOrder::Relaxed),
        shapes::messagePassing(MemOrder::Relaxed, MemOrder::Relaxed),
        shapes::dongolComparison()}) {
    if (M.consistent(X)) {
      EXPECT_TRUE(holdsWeakIsolation(X));
    }
  }
}

TEST(CppTmTest, PscIncludesTransactionalSync) {
  // SC fences inside conflicting transactions still order via psc.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::SeqCst, 1);
  EventId Ry = B.read(0, 1, MemOrder::SeqCst);
  EventId Wy = B.write(1, 1, MemOrder::SeqCst, 1);
  EventId Rx = B.read(1, 0, MemOrder::SeqCst);
  (void)Ry;
  (void)Rx; // both read initial values: SB shape
  (void)Wx;
  (void)Wy;
  CppModel M;
  EXPECT_FALSE(M.consistent(B.build()));
}

} // namespace
