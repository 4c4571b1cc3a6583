//===- relation_test.cpp - Relational algebra unit tests ----------------------==//

#include "relation/Relation.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

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
  unsigned N = 2 + GetParam() % 11;
  Relation R = randomRelation(Rng, N, 0.3);
  Relation S = randomRelation(Rng, N, 0.3);
  Relation T = randomRelation(Rng, N, 0.3);
  expectAlgebraicLaws(R, S, T);
  expectLawsOnReusedStorage(Rng, 0.3, expectAlgebraicLaws);
}

TEST_P(RandomRelationTest, ClosureLaws) {
  std::mt19937 Rng(GetParam() * 7919 + 1);
  unsigned N = 2 + GetParam() % 11;
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
  unsigned N = 3 + GetParam() % 10;
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

//===----------------------------------------------------------------------===
// Every public operation against a naive set-of-pairs reference, at sizes
// on both sides of the packed/row boundary (8/9 events) and at the cap.
//===----------------------------------------------------------------------===

/// The reference: an N x N matrix of flags, each operation written from
/// its definition over pairs.
struct RefRel {
  unsigned N;
  std::vector<char> M;

  explicit RefRel(unsigned N) : N(N), M(size_t(N) * N, 0) {}
  bool has(unsigned A, unsigned B) const { return M[size_t(A) * N + B]; }
  void set(unsigned A, unsigned B, bool V = true) {
    M[size_t(A) * N + B] = V;
  }

  template <typename Fn> static RefRel build(unsigned N, Fn &&Holds) {
    RefRel R(N);
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B)
        R.set(A, B, Holds(A, B));
    return R;
  }
  RefRel compose(const RefRel &O) const {
    return build(N, [&](unsigned A, unsigned B) {
      for (unsigned Mid = 0; Mid < N; ++Mid)
        if (has(A, Mid) && O.has(Mid, B))
          return true;
      return false;
    });
  }
  RefRel closure() const {
    RefRel R = *this;
    for (unsigned K = 0; K < N; ++K)
      for (unsigned A = 0; A < N; ++A)
        for (unsigned B = 0; B < N; ++B)
          if (R.has(A, K) && R.has(K, B))
            R.set(A, B);
    return R;
  }
  RefRel optional() const {
    return build(N,
                 [&](unsigned A, unsigned B) { return has(A, B) || A == B; });
  }
  RefRel minus(const RefRel &O) const {
    return build(N, [&](unsigned A, unsigned B) {
      return has(A, B) && !O.has(A, B);
    });
  }
  bool irreflexive() const {
    for (unsigned A = 0; A < N; ++A)
      if (has(A, A))
        return false;
    return true;
  }
};

/// "" when \p R holds exactly \p Ref's pairs — read through `contains`,
/// `successors`, `forEachPair` (and its order), `numPairs`, `isEmpty`,
/// `domain`, `range`, `field` and `reflexivePoints` — else the first
/// difference.
std::string differs(const Relation &R, const RefRel &Ref) {
  if (R.size() != Ref.N)
    return "size " + std::to_string(R.size());
  std::vector<std::pair<EventId, EventId>> Want, Got;
  EventSet Dom, Ran, Refl;
  for (unsigned A = 0; A < Ref.N; ++A) {
    uint64_t Row = 0;
    for (unsigned B = 0; B < Ref.N; ++B) {
      if (R.contains(A, B) != Ref.has(A, B))
        return "pair (" + std::to_string(A) + ", " + std::to_string(B) + ")";
      if (!Ref.has(A, B))
        continue;
      Want.push_back({A, B});
      Row |= uint64_t(1) << B;
      Dom.insert(A);
      Ran.insert(B);
      if (A == B)
        Refl.insert(A);
    }
    if (R.successors(A).bits() != Row)
      return "successors of " + std::to_string(A);
  }
  R.forEachPair([&Got](EventId A, EventId B) { Got.push_back({A, B}); });
  if (Got != Want)
    return "forEachPair";
  if (R.numPairs() != Want.size())
    return "numPairs";
  if (R.isEmpty() != Want.empty())
    return "isEmpty";
  if (R.domain() != Dom || R.range() != Ran || R.field() != (Dom | Ran))
    return "domain/range/field";
  if (R.reflexivePoints() != Refl)
    return "reflexivePoints";
  return "";
}

/// Checks `findCycle` against \p Ref: empty iff acyclic, else a cycle
/// through the lowest event on any cycle, as short as any cycle through
/// it, whose events reach one another inside the witness.
std::string badCycle(const Relation &R, const RefRel &Ref) {
  RefRel TC = Ref.closure();
  EventSet Got = R.findCycle();
  unsigned Lowest = 0;
  while (Lowest < Ref.N && !TC.has(Lowest, Lowest))
    ++Lowest;
  if (Lowest == Ref.N)
    return Got.empty() ? "" : "cycle in an acyclic relation";
  if (!Got.contains(Lowest))
    return "cycle misses the lowest cyclic event";
  // Shortest cycle length through Lowest, by BFS over the reference.
  std::vector<unsigned> Dist(Ref.N, ~0u);
  std::vector<unsigned> Queue = {Lowest};
  Dist[Lowest] = 0;
  unsigned Shortest = ~0u;
  for (size_t I = 0; I < Queue.size() && Shortest == ~0u; ++I)
    for (unsigned B = 0; B < Ref.N; ++B) {
      if (!Ref.has(Queue[I], B))
        continue;
      if (B == Lowest) {
        Shortest = Dist[Queue[I]] + 1;
        break;
      }
      if (Dist[B] == ~0u) {
        Dist[B] = Dist[Queue[I]] + 1;
        Queue.push_back(B);
      }
    }
  if (Got.size() != Shortest)
    return "cycle of " + std::to_string(Got.size()) + " events, shortest " +
           std::to_string(Shortest);
  // Every witness event reaches every other through witness edges.
  RefRel Inside = RefRel::build(Ref.N, [&](unsigned A, unsigned B) {
    return Got.contains(A) && Got.contains(B) && Ref.has(A, B);
  }).closure();
  for (EventId A : Got)
    for (EventId B : Got)
      if (!Inside.has(A, B))
        return "witness events not on one cycle";
  return "";
}

std::pair<Relation, RefRel> randomPair(std::mt19937_64 &Rng, unsigned N,
                                       double Density) {
  Relation R(N);
  RefRel Ref(N);
  std::bernoulli_distribution Flip(Density);
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = 0; B < N; ++B)
      if (Flip(Rng)) {
        R.insert(A, B);
        Ref.set(A, B);
      }
  return {R, Ref};
}

/// A random set that may hold members at or above N (up to event 63).
EventSet randomSet(std::mt19937_64 &Rng) { return EventSet(Rng() & Rng()); }

const unsigned OracleSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                10, 11, 12, 31, 63, 64};
const double OracleDensities[] = {0.0, 0.1, 0.35, 0.7, 1.0};

TEST(RelationOracleTest, EveryOperationMatchesPairSets) {
  std::mt19937_64 Rng(0x5eed);
  for (unsigned N : OracleSizes)
    for (double D : OracleDensities) {
      SCOPED_TRACE("N = " + std::to_string(N) +
                   ", density = " + std::to_string(D));
      auto [R, RefR] = randomPair(Rng, N, D);
      // A sparser second operand, so compose and closure meet both
      // empty and full columns.
      auto [S, RefS] = randomPair(Rng, N, D / 2);
      ASSERT_EQ(differs(R, RefR), "");
      ASSERT_EQ(differs(S, RefS), "");
      ASSERT_EQ(differs(Relation::empty(N), RefRel(N)), "");

      auto Pairwise = [&](auto Op) {
        return RefRel::build(N, [&](unsigned A, unsigned B) {
          return Op(RefR.has(A, B), RefS.has(A, B));
        });
      };
      RefRel Union = Pairwise([](bool X, bool Y) { return X || Y; });
      RefRel Inter = Pairwise([](bool X, bool Y) { return X && Y; });
      RefRel Diff = RefR.minus(RefS);
      EXPECT_EQ(differs(R | S, Union), "") << "|";
      EXPECT_EQ(differs(R & S, Inter), "") << "&";
      EXPECT_EQ(differs(R - S, Diff), "") << "-";
      Relation InPlace = R;
      EXPECT_EQ(differs(InPlace |= S, Union), "") << "|=";
      InPlace = R;
      EXPECT_EQ(differs(InPlace &= S, Inter), "") << "&=";
      InPlace = R;
      EXPECT_EQ(differs(InPlace -= S, Diff), "") << "-=";

      EXPECT_EQ(differs(R.compose(S), RefR.compose(RefS)), "") << "compose";
      EXPECT_EQ(differs(S.compose(R), RefS.compose(RefR)), "") << "compose";
      EXPECT_EQ(differs(R.inverse(), RefRel::build(N, [&](unsigned A,
                                                          unsigned B) {
                          return RefR.has(B, A);
                        })),
                "")
          << "inverse";
      EXPECT_EQ(differs(R.complement(), RefRel::build(N, [&](unsigned A,
                                                             unsigned B) {
                          return !RefR.has(A, B);
                        })),
                "")
          << "complement";
      EXPECT_EQ(differs(R.optional(), RefR.optional()), "") << "optional";
      EXPECT_EQ(differs(S.transitiveClosure(), RefS.closure()), "")
          << "transitiveClosure";
      EXPECT_EQ(differs(R.transitiveClosure(), RefR.closure()), "")
          << "transitiveClosure";
      EXPECT_EQ(differs(S.reflexiveTransitiveClosure(),
                        RefS.closure().optional()),
                "")
          << "reflexiveTransitiveClosure";

      EventSet Dom = randomSet(Rng), Ran = randomSet(Rng);
      EXPECT_EQ(differs(R.restrictDomain(Dom),
                        RefRel::build(N, [&](unsigned A, unsigned B) {
                          return RefR.has(A, B) && Dom.contains(A);
                        })),
                "")
          << "restrictDomain";
      EXPECT_EQ(differs(R.restrictRange(Ran),
                        RefRel::build(N, [&](unsigned A, unsigned B) {
                          return RefR.has(A, B) && Ran.contains(B);
                        })),
                "")
          << "restrictRange";
      EXPECT_EQ(differs(Relation::identityOn(Dom, N),
                        RefRel::build(N, [&](unsigned A, unsigned B) {
                          return A == B && Dom.contains(A);
                        })),
                "")
          << "identityOn";
      EXPECT_EQ(differs(Relation::cross(Dom, Ran, N),
                        RefRel::build(N, [&](unsigned A, unsigned B) {
                          return Dom.contains(A) && Ran.contains(B);
                        })),
                "")
          << "cross";

      EXPECT_EQ(R.isIrreflexive(), RefR.irreflexive());
      EXPECT_EQ(R.isAcyclic(), RefR.closure().irreflexive());
      EXPECT_EQ(S.isAcyclic(), RefS.closure().irreflexive());
      EXPECT_EQ(badCycle(R, RefR), "");
      EXPECT_EQ(badCycle(S, RefS), "");
      EXPECT_EQ(R == S, RefR.M == RefS.M);
      EXPECT_TRUE(R == Relation(R));
      EXPECT_TRUE((R & S).subsetOf(R));
      EXPECT_EQ(R.subsetOf(S), Diff.M == RefRel(N).M);
      EXPECT_EQ(differs(weakLift(R, S), RefS.compose(Diff).compose(RefS)),
                "")
          << "weakLift";
      EXPECT_EQ(differs(strongLift(R, S), RefS.optional()
                                             .compose(Diff)
                                             .compose(RefS.optional())),
                "")
          << "strongLift";
    }
}

TEST(RelationOracleTest, CyclesAtEveryLength) {
  // A ring over every event with a chord or two: findCycle's witness
  // must be the shortest cycle through event 0 whatever the layout.
  for (unsigned N : OracleSizes) {
    if (N < 2)
      continue;
    SCOPED_TRACE("N = " + std::to_string(N));
    Relation R(N);
    RefRel Ref(N);
    for (unsigned A = 0; A < N; ++A) {
      R.insert(A, (A + 1) % N);
      Ref.set(A, (A + 1) % N);
    }
    EXPECT_EQ(R.findCycle(), EventSet::universe(N));
    EXPECT_EQ(badCycle(R, Ref), "");
    R.insert(N - 1, N / 2);
    Ref.set(N - 1, N / 2);
    R.insert(N / 2, 0);
    Ref.set(N / 2, 0);
    EXPECT_EQ(badCycle(R, Ref), "");
    R.erase(N / 2, 0);
    Ref.set(N / 2, 0, false);
    R.insert(N - 1, N - 1);
    Ref.set(N - 1, N - 1);
    EXPECT_EQ(badCycle(R, Ref), "");
  }
}

TEST(RelationOracleTest, UniverseEdges) {
  // complement and optional at the edge of each layout's word: the packed
  // word full at 8 events, a row word full at 64.
  for (unsigned N : {7u, 8u, 9u, 63u, 64u}) {
    SCOPED_TRACE("N = " + std::to_string(N));
    Relation Empty(N);
    Relation Full = Empty.complement();
    EXPECT_EQ(Full.numPairs(), N * N);
    EXPECT_EQ(Full, Relation::cross(EventSet(~uint64_t(0)),
                                    EventSet(~uint64_t(0)), N));
    EXPECT_TRUE(Full.complement().isEmpty());
    EXPECT_EQ(Empty.optional(),
              Relation::identityOn(EventSet(~uint64_t(0)), N));
    EXPECT_EQ(Empty.optional().numPairs(), N);
    EXPECT_EQ(Full.optional(), Full);
    EXPECT_EQ(Full.inverse(), Full);
    EXPECT_EQ(Full.transitiveClosure(), Full);
    EXPECT_FALSE(Full.isAcyclic());
    EXPECT_EQ(Full.reflexivePoints(), EventSet::universe(N));
    EXPECT_EQ(Full.restrictRange(EventSet::singleton(N - 1)).numPairs(), N);
    EXPECT_EQ(Full.restrictDomain(EventSet::singleton(N - 1)).numPairs(), N);
  }
}

TEST(RelationOracleTest, ReuseAcrossThePackedBoundary) {
  // Storage reused across layouts: an 8-event (packed) relation assigned
  // over a populated 9-event one and back, over 64 and back, and each
  // result still read and operated on exactly.
  std::mt19937_64 Rng(0xb0a7);
  const unsigned Pairs[][2] = {{9, 8}, {8, 9}, {64, 8}, {8, 64},
                               {12, 3}, {2, 12}, {9, 9}, {8, 8}};
  for (const auto &[From, To] : Pairs) {
    SCOPED_TRACE("assign " + std::to_string(To) + " events over " +
                 std::to_string(From));
    auto [Old, RefOld] = randomPair(Rng, From, 0.9);
    auto [New, RefNew] = randomPair(Rng, To, 0.3);
    Relation Slot = Old;
    ASSERT_EQ(differs(Slot, RefOld), "");
    Slot = New;
    EXPECT_EQ(differs(Slot, RefNew), "");
    EXPECT_EQ(Slot, New);
    EXPECT_EQ(differs(Slot.compose(Slot), RefNew.compose(RefNew)), "");
    EXPECT_EQ(differs(Slot.transitiveClosure(), RefNew.closure()), "");
    // Filled in place after the assignment, pair by pair.
    Slot = Old;
    Slot = Relation(To);
    New.forEachPair([&Slot](EventId A, EventId B) { Slot.insert(A, B); });
    EXPECT_EQ(differs(Slot, RefNew), "");
    Relation Copy(Slot);
    EXPECT_EQ(differs(Copy, RefNew), "");
    EXPECT_EQ(Relation(From) == Relation(To), From == To);
  }
}

} // namespace
