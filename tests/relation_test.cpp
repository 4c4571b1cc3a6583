//===- relation_test.cpp - Relational algebra unit tests ----------------------==//

#include "relation/Relation.h"

#include <gtest/gtest.h>

#include <random>

using namespace tmw;

namespace {

Relation chain(unsigned N) {
  Relation R(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    R.insert(I, I + 1);
  return R;
}

TEST(EventSetTest, BasicOperations) {
  EventSet S;
  EXPECT_TRUE(S.empty());
  S.insert(3);
  S.insert(7);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(4));
  S.erase(3);
  EXPECT_FALSE(S.contains(3));
  EXPECT_EQ(S.size(), 1u);
}

TEST(EventSetTest, SetAlgebra) {
  EventSet A = EventSet::singleton(1) | EventSet::singleton(2);
  EventSet B = EventSet::singleton(2) | EventSet::singleton(3);
  EXPECT_EQ((A & B), EventSet::singleton(2));
  EXPECT_EQ((A - B), EventSet::singleton(1));
  EXPECT_EQ((A | B).size(), 3u);
}

TEST(EventSetTest, UniverseAndComplement) {
  EventSet U = EventSet::universe(5);
  EXPECT_EQ(U.size(), 5u);
  EventSet S = EventSet::singleton(0);
  EXPECT_EQ(S.complement(5).size(), 4u);
  EXPECT_FALSE(S.complement(5).contains(0));
}

TEST(EventSetTest, Iteration) {
  EventSet S;
  S.insert(5);
  S.insert(1);
  S.insert(9);
  std::vector<EventId> Got;
  for (EventId E : S)
    Got.push_back(E);
  EXPECT_EQ(Got, (std::vector<EventId>{1, 5, 9}));
}

TEST(RelationTest, InsertContainsErase) {
  Relation R(4);
  EXPECT_TRUE(R.isEmpty());
  R.insert(0, 3);
  EXPECT_TRUE(R.contains(0, 3));
  EXPECT_FALSE(R.contains(3, 0));
  EXPECT_EQ(R.numPairs(), 1u);
  R.erase(0, 3);
  EXPECT_TRUE(R.isEmpty());
}

TEST(RelationTest, ComposeChains) {
  Relation R = chain(4);
  Relation RR = R.compose(R);
  EXPECT_TRUE(RR.contains(0, 2));
  EXPECT_TRUE(RR.contains(1, 3));
  EXPECT_FALSE(RR.contains(0, 1));
  EXPECT_EQ(RR.numPairs(), 2u);
}

TEST(RelationTest, TransitiveClosureOfChain) {
  Relation R = chain(4).transitiveClosure();
  EXPECT_EQ(R.numPairs(), 6u); // 3 + 2 + 1
  EXPECT_TRUE(R.contains(0, 3));
  EXPECT_FALSE(R.contains(3, 0));
  EXPECT_TRUE(R.isAcyclic());
}

TEST(RelationTest, CycleDetection) {
  Relation R = chain(3);
  EXPECT_TRUE(R.isAcyclic());
  R.insert(2, 0);
  EXPECT_FALSE(R.isAcyclic());
  // A self-loop is a cycle too.
  Relation Self(2);
  Self.insert(1, 1);
  EXPECT_FALSE(Self.isAcyclic());
}

TEST(RelationTest, InverseInvolution) {
  Relation R(5);
  R.insert(0, 2);
  R.insert(2, 4);
  R.insert(1, 1);
  EXPECT_EQ(R.inverse().inverse(), R);
  EXPECT_TRUE(R.inverse().contains(2, 0));
}

TEST(RelationTest, IdentityAndCross) {
  EventSet S = EventSet::singleton(1) | EventSet::singleton(3);
  Relation Id = Relation::identityOn(S, 4);
  EXPECT_EQ(Id.numPairs(), 2u);
  EXPECT_TRUE(Id.contains(1, 1));
  Relation Cross = Relation::cross(S, EventSet::singleton(0), 4);
  EXPECT_EQ(Cross.numPairs(), 2u);
  EXPECT_TRUE(Cross.contains(3, 0));
}

TEST(RelationTest, DomainRange) {
  Relation R(4);
  R.insert(0, 1);
  R.insert(0, 2);
  R.insert(3, 1);
  EXPECT_EQ(R.domain(), (EventSet::singleton(0) | EventSet::singleton(3)));
  EXPECT_EQ(R.range(), (EventSet::singleton(1) | EventSet::singleton(2)));
  EXPECT_EQ(R.field().size(), 4u);
}

TEST(RelationTest, RestrictionAndComplement) {
  Relation R = chain(4);
  EXPECT_EQ(R.restrictDomain(EventSet::singleton(1)).numPairs(), 1u);
  EXPECT_EQ(R.restrictRange(EventSet::singleton(1)).numPairs(), 1u);
  Relation C = R.complement();
  EXPECT_EQ(C.numPairs(), 16u - 3u);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = 0; B < 4; ++B)
      EXPECT_NE(R.contains(A, B), C.contains(A, B));
}

TEST(RelationTest, OptionalAddsIdentity) {
  Relation R = chain(3).optional();
  EXPECT_TRUE(R.contains(0, 0));
  EXPECT_TRUE(R.contains(2, 2));
  EXPECT_EQ(R.numPairs(), 5u);
}

TEST(RelationTest, SubsetOf) {
  Relation R = chain(4);
  EXPECT_TRUE(R.subsetOf(R.transitiveClosure()));
  EXPECT_FALSE(R.transitiveClosure().subsetOf(R));
}

TEST(LiftTest, WeakLiftNeedsBothEndsInClasses) {
  // Two singleton transactions {0} and {2}; event 1 unclassified.
  Relation T(3);
  T.insert(0, 0);
  T.insert(2, 2);
  Relation R(3);
  R.insert(0, 2); // between transactions: lifted
  R.insert(0, 1); // to a non-transactional event: not lifted
  Relation W = weakLift(R, T);
  EXPECT_TRUE(W.contains(0, 2));
  EXPECT_FALSE(W.contains(0, 1));
}

TEST(LiftTest, StrongLiftIncludesOutsideEndpoints) {
  Relation T(3);
  T.insert(0, 0);
  Relation R(3);
  R.insert(1, 0); // into the transaction from outside
  R.insert(0, 2); // out of the transaction
  Relation S = strongLift(R, T);
  EXPECT_TRUE(S.contains(1, 0));
  EXPECT_TRUE(S.contains(0, 2));
  // weaklift sees neither.
  EXPECT_TRUE(weakLift(R, T).isEmpty());
}

TEST(LiftTest, LiftTreatsTransactionAsOneNode) {
  // Transaction {0,1}; edges 2->0 and 1->3 lift to edges covering the
  // whole class, creating 2 -> {0,1} -> 3.
  Relation T(4);
  for (EventId A : {0, 1})
    for (EventId B : {0, 1})
      T.insert(A, B);
  Relation R(4);
  R.insert(2, 0);
  R.insert(1, 3);
  Relation S = strongLift(R, T);
  EXPECT_TRUE(S.contains(2, 1));
  EXPECT_TRUE(S.contains(0, 3));
  // Composing finds the communication path through the transaction.
  EXPECT_TRUE(S.compose(S).contains(2, 3));
}

//===----------------------------------------------------------------------===
// Property sweeps over random relations.
//===----------------------------------------------------------------------===

void expectAlgebraicLaws(const Relation &R, const Relation &S,
                         const Relation &T) {
  // Composition is associative.
  EXPECT_EQ(R.compose(S).compose(T), R.compose(S.compose(T)));
  // Composition distributes over union.
  EXPECT_EQ(R.compose(S | T), (R.compose(S) | R.compose(T)));
  // Inverse is an involution and reverses composition.
  EXPECT_EQ(R.inverse().inverse(), R);
  EXPECT_EQ(R.compose(S).inverse(), S.inverse().compose(R.inverse()));
  // De Morgan for sets of pairs.
  EXPECT_EQ((R | S).complement(), (R.complement() & S.complement()));
}

void expectClosureLaws(const Relation &R) {
  Relation Plus = R.transitiveClosure();
  // Closure is idempotent and contains the relation.
  EXPECT_EQ(Plus.transitiveClosure(), Plus);
  EXPECT_TRUE(R.subsetOf(Plus));
  // r+ is transitive.
  EXPECT_TRUE(Plus.compose(Plus).subsetOf(Plus));
  // r* = r+ u id.
  EXPECT_EQ(R.reflexiveTransitiveClosure(), Plus.optional());
  // Acyclicity agrees between r and r+.
  EXPECT_EQ(R.isAcyclic(), Plus.isIrreflexive());
}

class RandomRelationTest : public ::testing::TestWithParam<unsigned> {
protected:
  Relation randomRelation(std::mt19937 &Rng, unsigned N, double Density) {
    Relation R(N);
    std::bernoulli_distribution Flip(Density);
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B)
        if (Flip(Rng))
          R.insert(A, B);
    return R;
  }

  /// Rows at or above size() are never read. Runs \p Laws on relations
  /// whose storage held other relations first: 3-event relations assigned
  /// over populated 10-event ones (their stale rows 3-9 stay dense), then
  /// fresh 10-event relations assigned over those and filled in place.
  template <typename LawsFn>
  void expectLawsOnReusedStorage(std::mt19937 &Rng, double Density,
                                 LawsFn &&Laws) {
    Relation Rs[3] = {randomRelation(Rng, 10, 0.9),
                      randomRelation(Rng, 10, 0.9),
                      randomRelation(Rng, 10, 0.9)};
    for (Relation &R : Rs) {
      R = randomRelation(Rng, 3, Density);
      ASSERT_EQ(R.size(), 3u);
    }
    Laws(Rs[0], Rs[1], Rs[2]);
    for (Relation &R : Rs) {
      Relation Fresh = randomRelation(Rng, 10, Density);
      R = Relation(10);
      Fresh.forEachPair([&R](EventId A, EventId B) { R.insert(A, B); });
      ASSERT_EQ(R, Fresh);
    }
    Laws(Rs[0], Rs[1], Rs[2]);
  }
};

TEST_P(RandomRelationTest, AlgebraicLaws) {
  std::mt19937 Rng(GetParam());
  unsigned N = 2 + GetParam() % 7;
  Relation R = randomRelation(Rng, N, 0.3);
  Relation S = randomRelation(Rng, N, 0.3);
  Relation T = randomRelation(Rng, N, 0.3);
  expectAlgebraicLaws(R, S, T);
  expectLawsOnReusedStorage(Rng, 0.3, expectAlgebraicLaws);
}

TEST_P(RandomRelationTest, ClosureLaws) {
  std::mt19937 Rng(GetParam() * 7919 + 1);
  unsigned N = 2 + GetParam() % 7;
  expectClosureLaws(randomRelation(Rng, N, 0.25));
  expectLawsOnReusedStorage(
      Rng, 0.25, [](const Relation &R, const Relation &S, const Relation &T) {
        expectClosureLaws(R);
        expectClosureLaws(S);
        expectClosureLaws(T);
      });
}

TEST_P(RandomRelationTest, LiftDefinitions) {
  std::mt19937 Rng(GetParam() * 104729 + 3);
  unsigned N = 3 + GetParam() % 5;
  Relation R = randomRelation(Rng, N, 0.3);
  // Build a partial equivalence: a random block of events.
  Relation T(N);
  std::bernoulli_distribution Flip(0.5);
  EventSet Block;
  for (unsigned E = 0; E < N; ++E)
    if (Flip(Rng))
      Block.insert(E);
  for (EventId A : Block)
    for (EventId B : Block)
      T.insert(A, B);

  EXPECT_EQ(weakLift(R, T), T.compose(R - T).compose(T));
  EXPECT_EQ(strongLift(R, T),
            T.optional().compose(R - T).compose(T.optional()));
  // weaklift is contained in stronglift.
  EXPECT_TRUE(weakLift(R, T).subsetOf(strongLift(R, T)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelationTest,
                         ::testing::Range(0u, 24u));

} // namespace
