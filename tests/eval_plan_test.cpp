//===- eval_plan_test.cpp - Cross-spec evaluation plan tests ------------------==//
///
/// The cross-spec evaluation plan (models/EvalPlan.h) pinned three ways:
///
///  * differential — planned engine runs are verdict- and byte-identical
///    to independent per-model runs over the whole corpus × a ≥10-spec
///    matrix (ablations, wrappers, hierarchy pairs) × Jobs in {1, 4, 16},
///    and plan verdicts equal direct `MemoryModel::consistent` over every
///    enumerated execution of every architecture's vocabulary (so an
///    unsound subsumption edge or a bad term-sharing salt cannot hide:
///    any wrong short-circuit flips a verdict somewhere in the sweep);
///
///  * structural — shared terms really are shared (one obligation for
///    SC's and TSC's Order, one coherence across the hardware models),
///    and every implication edge is justified: a propositional
///    obligation subset, an ablation-lattice edge within one table
///    family, or a hierarchy edge from a maximal (SC/TSC-strength)
///    source — never a pair the hierarchy test doesn't imply (x86 =>
///    ARMv8 is pinned only over x86's vocabulary, so it must NOT be an
///    edge);
///
///  * operational — the per-candidate obligation cache and the
///    subsumption short-circuits actually fire, and the session cache
///    compiles one plan per spec set and serves the rest resident.
///
//===----------------------------------------------------------------------===//

#include "enumerate/Enumerator.h"
#include "litmus/Library.h"
#include "models/EvalPlan.h"
#include "models/ModelRegistry.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

using namespace tmw;

namespace {

/// ≥10 specs spanning every architecture, ablations over checked and
/// modifier axioms (salt-relevant and not), baseline wrappers, hardware
/// substitutes, and the hierarchy pairs (SC/TSC above everything).
const std::vector<std::string> kMatrix = {
    "sc",          "tsc",          "x86",
    "power",       "armv8",        "cpp",
    "x86/-tfence", "x86/+baseline", "power/-TxnOrder",
    "power/-thb",  "armv8/-StrongIsol", "cpp/+baseline",
    "power8",      "armv8-rtl"};

struct ResolvedMatrix {
  std::vector<std::unique_ptr<MemoryModel>> Owned;
  std::vector<const MemoryModel *> Raw;

  explicit ResolvedMatrix(const std::vector<std::string> &Specs = kMatrix) {
    for (const std::string &Spec : Specs) {
      std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec);
      EXPECT_TRUE(M) << Spec;
      Raw.push_back(M.get());
      Owned.push_back(std::move(M));
    }
  }
};

size_t indexOf(const std::string &Spec) {
  auto It = std::find(kMatrix.begin(), kMatrix.end(), Spec);
  EXPECT_NE(It, kMatrix.end()) << Spec;
  return static_cast<size_t>(It - kMatrix.begin());
}

/// The spec's table family: the registry token before any "/" modifier
/// ("power/-thb" -> "power"; wrappers like "power8" are their own family).
std::string familyOf(const std::string &Spec) {
  return Spec.substr(0, Spec.find('/'));
}

std::vector<CheckRequest> corpusRequests() {
  std::vector<CheckRequest> Requests;
  for (const CorpusEntry &E : standardCorpus()) {
    CheckRequest R;
    R.Corpus = E.Name;
    R.ModelSpecs = kMatrix;
    R.Explain = true;
    R.WantOutcomes = true;
    Requests.push_back(std::move(R));
  }
  return Requests;
}

TEST(EvalPlan_, PlannedAndIndependentAreByteIdentical) {
  std::vector<CheckRequest> Requests = corpusRequests();
  std::string Reference;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    std::vector<CheckResponse> Planned =
        QueryEngine({.Jobs = Jobs, .Strategy = EvalStrategy::Planned})
            .runAll(Requests);
    std::vector<CheckResponse> Independent =
        QueryEngine({.Jobs = Jobs, .Strategy = EvalStrategy::Independent})
            .runAll(Requests);
    std::string PlannedJson = responsesToJson(Planned, nullptr);
    std::string IndependentJson = responsesToJson(Independent, nullptr);
    EXPECT_EQ(PlannedJson, IndependentJson) << "Jobs=" << Jobs;
    if (Reference.empty())
      Reference = PlannedJson;
    // And identical across Jobs counts, planned or not.
    EXPECT_EQ(PlannedJson, Reference) << "Jobs=" << Jobs;
  }
}

TEST(EvalPlan_, MatchesDirectEvaluationOverEveryVocabulary) {
  // Every enumerated execution (bases and transaction placements) of
  // every architecture's vocabulary: the plan's per-spec verdicts must
  // equal direct evaluation. This is the semantic audit of both sharing
  // (salts) and subsumption (edges + guards): a wrong short-circuit
  // flips some verdict in this space — the x86 => ARMv8 edge the plan
  // must not take is falsified here by DMB-bearing ARMv8 executions.
  ResolvedMatrix M;
  EvalPlan Plan = EvalPlan::compile(M.Raw);
  EvalPlan::Scratch Scratch = Plan.makeScratch();
  std::optional<ExecutionAnalysis> Arena;
  for (Arch A : ModelRegistry::allArchs()) {
    uint64_t Seen = 0;
    ExecutionEnumerator Enum(Vocabulary::forArch(A), 3);
    auto Check = [&](const Execution &X) {
      if (!Arena)
        Arena.emplace(X);
      else
        Arena->reset(X);
      Plan.evaluate(*Arena, Scratch);
      ++Seen;
      for (size_t S = 0; S < M.Raw.size(); ++S)
        ASSERT_EQ(Scratch.consistent(S), M.Raw[S]->consistent(*Arena))
            << kMatrix[S] << " over " << archName(A) << " vocabulary\n"
            << X.dump();
    };
    Enum.forEachBase([&](Execution &Base) {
      Check(Base);
      return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
        Check(X);
        return true;
      });
    });
    EXPECT_GT(Seen, 0u) << archName(A);
  }
  // The cache and the short-circuits actually fired during the sweep.
  const EvalPlan::Counters &C = Scratch.counters();
  EXPECT_GT(C.Candidates, 0u);
  EXPECT_GT(C.TermHits, 0u);
  EXPECT_GT(C.SpecShortCircuits, 0u);
  EXPECT_EQ(C.SpecEvals + C.SpecShortCircuits,
            C.Candidates * Plan.numSpecs());
}

TEST(EvalPlan_, SharedTermsCollapseToOneObligation) {
  ResolvedMatrix M;
  EvalPlan Plan = EvalPlan::compile(M.Raw);
  ASSERT_EQ(Plan.numSpecs(), kMatrix.size());

  // Hash-consing wins: the pool is strictly smaller than the sum of the
  // per-spec obligation lists.
  size_t Total = 0;
  for (size_t S = 0; S < Plan.numSpecs(); ++S)
    Total += Plan.specObligations(S).size();
  EXPECT_LT(Plan.numObligations(), Total);

  // SC's Order and TSC's Order reference one term function with salt 0:
  // one obligation.
  EXPECT_EQ(Plan.specObligations(indexOf("sc"))[0],
            Plan.specObligations(indexOf("tsc"))[0]);

  // Coherence is shared across x86, Power, and ARMv8 (first table entry
  // of each, salt 0).
  uint32_t Coh = Plan.specObligations(indexOf("x86"))[0];
  EXPECT_EQ(Coh, Plan.specObligations(indexOf("power"))[0]);
  EXPECT_EQ(Coh, Plan.specObligations(indexOf("armv8"))[0]);

  // A salt-relevant ablation does NOT collapse: x86's Order reads the
  // tfence bit, so "x86" and "x86/-tfence" must keep distinct hb
  // obligations (sharing them was the classic masking bug).
  auto X86 = Plan.specObligations(indexOf("x86"));
  auto X86NoTf = Plan.specObligations(indexOf("x86/-tfence"));
  std::vector<uint32_t> A(X86.begin(), X86.end()),
      B(X86NoTf.begin(), X86NoTf.end());
  EXPECT_NE(A, B);
}

TEST(EvalPlan_, EveryEdgeIsJustified) {
  // Audit of the subsumption sources: each edge must be (a) structural —
  // target obligations a subset of the source's, sound propositionally;
  // (b) intra-family — same table, ablation-lattice monotonicity; or
  // (c) hierarchy — from a maximal SC/TSC-strength source, the only
  // cross-arch bounds that hold on every vocabulary. In particular the
  // hierarchy test's x86 => ARMv8 (pinned over x86's vocabulary only)
  // must never become an edge.
  ResolvedMatrix M;
  EvalPlan Plan = EvalPlan::compile(M.Raw);
  size_t N = kMatrix.size();

  // Directly-justified pairs, recomputed independently of the plan.
  auto oblSet = [&](size_t S) {
    auto O = Plan.specObligations(S);
    std::vector<uint32_t> V(O.begin(), O.end());
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    return V;
  };
  // The two obligations of the dominance rule, recovered from the pool:
  // SC's sole obligation is `acyclic(po u com)`, and the one obligation
  // power8 adds over power is the wrappers' NoLB `acyclic(po u rf)` —
  // the former implies the latter (rf ⊆ com).
  std::vector<uint32_t> ScSet = oblSet(indexOf("sc"));
  ASSERT_EQ(ScSet.size(), 1u);
  uint32_t ScHb = ScSet[0];
  std::vector<uint32_t> P8Set = oblSet(indexOf("power8")),
                        PwSet = oblSet(indexOf("power")), NoLbOnly;
  std::set_difference(P8Set.begin(), P8Set.end(), PwSet.begin(), PwSet.end(),
                      std::back_inserter(NoLbOnly));
  ASSERT_EQ(NoLbOnly.size(), 1u);
  uint32_t NoLb = NoLbOnly[0];
  auto justified = [&](size_t I, size_t J) {
    const std::string &From = kMatrix[I], &To = kMatrix[J];
    // (a) structural: obligations(To) ⊆ covered(I) — propositional plus
    // the scHb => NoLB dominance.
    std::vector<uint32_t> FromSet = oblSet(I), ToSet = oblSet(J);
    if (std::binary_search(FromSet.begin(), FromSet.end(), ScHb)) {
      FromSet.push_back(NoLb);
      std::sort(FromSet.begin(), FromSet.end());
      FromSet.erase(std::unique(FromSet.begin(), FromSet.end()),
                    FromSet.end());
    }
    if (std::includes(FromSet.begin(), FromSet.end(), ToSet.begin(),
                      ToSet.end()))
      return true;
    // (b) ablation lattice: same table family AND mask(To) ⊆ mask(From)
    // — monotone modifier bits, so sub-mask = weaker model.
    if (familyOf(From) == familyOf(To)) {
      unsigned Bits =
          static_cast<unsigned>(M.Raw[I]->axioms().size());
      uint32_t FromMask = M.Raw[I]->axiomMask().normalized(Bits).bits();
      uint32_t ToMask = M.Raw[J]->axiomMask().normalized(Bits).bits();
      if ((ToMask & ~FromMask) == 0)
        return true;
    }
    // (c) hierarchy, maximal sources only: TSC above the hardware TM
    // models (and SC, structurally above via the shared Order); SC above
    // the hardware baselines. The hierarchy test's x86 => ARMv8 is
    // vocabulary-scoped and deliberately NOT here.
    std::string FromFam = familyOf(From), ToFam = familyOf(To);
    // NoLB wrappers of the hardware TM models count as hierarchy targets
    // too: the extra axiom is dominated by the SC/TSC source's Order.
    bool HwFam = ToFam == "x86" || ToFam == "power" || ToFam == "armv8" ||
                 ToFam == "power8" || ToFam == "armv8-rtl";
    if (FromFam == "tsc" && HwFam)
      return true;
    if (FromFam == "sc" && HwFam &&
        To.find("/+baseline") != std::string::npos)
      return true;
    return false;
  };

  // The plan closes edges transitively, so close the justification
  // relation the same way before comparing.
  std::vector<std::vector<char>> Ok(N, std::vector<char>(N, 0));
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Ok[I][J] = I != J && justified(I, J);
  for (size_t K = 0; K < N; ++K)
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Ok[I][J] |= Ok[I][K] && Ok[K][J];

  for (const EvalPlan::Edge &E : Plan.edges())
    EXPECT_TRUE(Ok[E.From][E.To])
        << "unjustified edge " << kMatrix[E.From] << " => "
        << kMatrix[E.To];

  // The hierarchy edges the paper pins, present and guarded...
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("x86")));
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("power")));
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("armv8")));
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("sc")));
  EXPECT_TRUE(Plan.implies(indexOf("sc"), indexOf("x86/+baseline")));
  // ...the lattice edges within a family...
  EXPECT_TRUE(Plan.implies(indexOf("x86"), indexOf("x86/-tfence")));
  EXPECT_TRUE(Plan.implies(indexOf("power"), indexOf("power/-TxnOrder")));
  // ...the structural wrapper edge (power8 checks power's obligations
  // plus one more) and the dominance edges over the NoLB wrappers...
  EXPECT_TRUE(Plan.implies(indexOf("power8"), indexOf("power")));
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("power8")));
  EXPECT_TRUE(Plan.implies(indexOf("tsc"), indexOf("armv8-rtl")));
  // ...and the pairs that must NOT be edges: hardware-to-hardware bounds
  // (vocabulary-scoped in the hierarchy test) and everything upward.
  EXPECT_FALSE(Plan.implies(indexOf("x86"), indexOf("armv8")));
  EXPECT_FALSE(Plan.implies(indexOf("x86"), indexOf("power")));
  EXPECT_FALSE(Plan.implies(indexOf("armv8"), indexOf("x86")));
  EXPECT_FALSE(Plan.implies(indexOf("power"), indexOf("armv8")));
  EXPECT_FALSE(Plan.implies(indexOf("sc"), indexOf("tsc")));
  EXPECT_FALSE(Plan.implies(indexOf("sc"), indexOf("x86")));
  EXPECT_FALSE(Plan.implies(indexOf("cpp"), indexOf("x86")));
  EXPECT_FALSE(Plan.implies(indexOf("x86"), indexOf("cpp")));
}

TEST(EvalPlan_, GuardsKeepTscEdgesHonest) {
  // A TSC-consistent execution with an RMW-isolation violation inside a
  // transaction placement sits outside the upper-bound claim (the guard
  // obligations catch it): sweep and check the plan still answers
  // exactly what the models answer — i.e. subsumption never overrides
  // the guard. (Covered by the big differential sweep too; this pins the
  // guard mechanism on the narrowest interesting matrix.)
  ResolvedMatrix M(
      std::vector<std::string>{"tsc", "x86", "power", "armv8"});
  EvalPlan Plan = EvalPlan::compile(M.Raw);
  EvalPlan::Scratch Scratch = Plan.makeScratch();
  std::optional<ExecutionAnalysis> Arena;
  ExecutionEnumerator Enum(Vocabulary::forArch(Arch::X86), 4);
  Enum.forEachBase([&](Execution &Base) {
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      if (!Arena)
        Arena.emplace(X);
      else
        Arena->reset(X);
      Plan.evaluate(*Arena, Scratch);
      for (size_t S = 0; S < M.Raw.size(); ++S)
        EXPECT_EQ(Scratch.consistent(S), M.Raw[S]->consistent(*Arena))
            << X.dump();
      return !::testing::Test::HasFailure();
    });
  });
}

TEST(EvalPlan_, SessionCacheCompilesOncePerSpecSet) {
  SessionCache Cache;
  QueryEngine Engine({.Jobs = 4, .Cache = &Cache});
  std::vector<CheckRequest> Requests = corpusRequests();

  // Cold batch: `SessionCache::specs` builds outside its lock, so each
  // worker racing the first lookups may compile its own identical copy.
  // One set becomes resident; every request either compiled or hit.
  BatchTelemetry T1;
  std::vector<CheckResponse> First = Engine.runAll(Requests, &T1);
  SessionCache::Stats S1 = Cache.stats();
  EXPECT_EQ(S1.SpecSetsCached, 1u);
  EXPECT_EQ(T1.Plan.Compiles + T1.Plan.CacheHits, Requests.size());
  EXPECT_GE(T1.Plan.Compiles, 1u);
  EXPECT_LE(T1.Plan.Compiles, 4u); // at most once per worker
  EXPECT_GT(T1.Plan.TermHits, 0u);
  EXPECT_GT(T1.Plan.SpecShortCircuits, 0u);

  // Second batch: fully resident.
  BatchTelemetry T2;
  std::vector<CheckResponse> Second = Engine.runAll(Requests, &T2);
  SessionCache::Stats S2 = Cache.stats();
  EXPECT_EQ(S2.SpecSetsCached, 1u);
  EXPECT_EQ(T2.Plan.Compiles, 0u);
  EXPECT_EQ(T2.Plan.CacheHits, Requests.size());
  EXPECT_EQ(responsesToJson(First, nullptr),
            responsesToJson(Second, nullptr));

  // A different spec set compiles its own plan.
  CheckRequest R;
  R.Corpus = standardCorpus().front().Name;
  R.ModelSpecs = {"sc", "tsc"};
  Engine.evaluate(R);
  EXPECT_EQ(Cache.stats().SpecSetsCached, 2u);

  Cache.clear();
  EXPECT_EQ(Cache.stats().SpecSetsCached, 0u);
}

} // namespace
