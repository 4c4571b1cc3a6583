//===- audit_test.cpp - Contract-auditor tests --------------------------------==//
///
/// The contract auditor (audit/ContractAudit.h) pinned from both sides:
///
///  * *negative* — deliberately broken fixture models, one per audited
///    contract, each of which the corresponding pass MUST flag (and the
///    other passes must not): an axiom whose term reads a mask bit
///    outside its declared `Salt`; an honest `Axiom::Salt` hiding a
///    `memoTerm` call salted narrower than the closure's real footprint;
///    a transaction-reading term memoized as `TxnDependent = false`,
///    which serves a stale relation across
///    `invalidateTransactionalState()`; and a po-reading term declaring a
///    `Footprint` of `vocab::Txn` only, which the footprint pass must
///    catch producing edges on txn-free probes (an under-declared
///    footprint would let `EvalPlan::specialize` discharge a live
///    constraint); and a non-TM axiom whose term reads `stxn`, which the
///    baseline pass must catch differing between a base and its
///    placements (a baseline that reads transactions would mislead the
///    Forbid search). Honest table entries sitting next to the broken
///    ones must stay clean — the auditor finds lies, not neighbours.
///
///  * *positive* — the full default registry matrix audits clean (the CI
///    gate `tmw_audit` enforces), and the JSON report round-trips through
///    the repo's parser.
///
/// Plus the `AxiomMask` boundary pinned at the 32-axiom cap the new
/// asserts in models/Axiom.h enforce.
///
//===----------------------------------------------------------------------===//

#include "audit/AuditIO.h"
#include "audit/ContractAudit.h"
#include "query/Json.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tmw;

namespace {

//===----------------------------------------------------------------------===
// Fixture models. Table layout shared by all three: index 0 is a modifier
// toggle (the bit the lying terms secretly read), index 1 the honest
// control axiom, index 2 the deliberately broken entry.
//===----------------------------------------------------------------------===

Relation emptyTerm(const ExecutionAnalysis &A, AxiomMask) {
  return Relation(A.size());
}

Relation honestPo(const ExecutionAnalysis &A, AxiomMask) { return A.po(); }

/// Reads the Toggle bit but declares `Salt = 0`: the salt pass must catch
/// bit 0 on any probe where po and po|rf differ.
Relation underSaltedTerm(const ExecutionAnalysis &A, AxiomMask M) {
  return M.test(0) ? A.po() : A.po() | A.rf();
}

/// Honest `Axiom::Salt` (bit 0), but the memoTerm salt inside is 0: the
/// shared memoized arena returns the bit-0-on relation after the mask
/// flips, which only the memoization pass can see.
Relation memoLieTerm(const ExecutionAnalysis &A, AxiomMask M) {
  static const char Tag = 0;
  return A.memoTerm(&Tag, /*Salt=*/0, /*TxnDependent=*/false, [&] {
    return M.test(0) ? A.po() : A.po() | A.rf();
  });
}

/// Reads the transaction labelling but memoizes as `TxnDependent =
/// false`: survives `invalidateTransactionalState()`, so the placement
/// sweep sees a stale relation. Mask-independent and probe-fresh, so the
/// salt and memoization passes stay clean.
Relation staleTxnTerm(const ExecutionAnalysis &A, AxiomMask) {
  static const char Tag = 0;
  return A.memoTerm(&Tag, /*Salt=*/0, /*TxnDependent=*/false,
                    [&] { return A.po() | A.stxn(); });
}

constexpr Axiom kUnderSaltedTable[] = {
    {"Toggle", AxiomKind::Acyclic, emptyTerm, false, /*Modifier=*/true, 0},
    {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
    {"Lying", AxiomKind::Acyclic, underSaltedTerm, false, false,
     /*Salt=*/0},
};

constexpr Axiom kMemoLieTable[] = {
    {"Toggle", AxiomKind::Acyclic, emptyTerm, false, /*Modifier=*/true, 0},
    {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
    {"MemoLie", AxiomKind::Acyclic, memoLieTerm, false, false,
     /*Salt=*/uint32_t(1) << 0},
};

// StaleTxn reads transactions, so it is a TM axiom: a spec enabling it is
// no baseline, and the baseline pass leaves it to the invalidation pass.
constexpr Axiom kStaleTxnTable[] = {
    {"Toggle", AxiomKind::Acyclic, emptyTerm, false, /*Modifier=*/true, 0},
    {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
    {"StaleTxn", AxiomKind::Acyclic, staleTxnTerm, /*Tm=*/true, false, 0},
};

/// Reads the transaction labelling, unmemoized, in a table with no TM
/// axiom: a baseline that is not transaction-blind. Mask-independent with
/// the default footprint, so only the baseline pass may flag it.
Relation txnReadingTerm(const ExecutionAnalysis &A, AxiomMask) {
  return A.po() | A.stxn();
}

constexpr Axiom kTxnReadingTable[] = {
    {"Toggle", AxiomKind::Acyclic, emptyTerm, false, /*Modifier=*/true, 0},
    {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
    {"ReadsTxn", AxiomKind::Acyclic, txnReadingTerm, false, false, 0},
};

/// A deliberately *under-declared* footprint: the term reads plain
/// program order (non-empty on every multi-event execution) but claims it
/// only speaks `vocab::Txn`. On any txn-free probe the vocabulary is
/// disjoint from the declared footprint, so the footprint contract
/// demands an empty relation — and po is not empty. Mask-independent and
/// memo-free, so the other three passes must stay silent.
constexpr Axiom kUnderFootprintTable[] = {
    {"Toggle", AxiomKind::Acyclic, emptyTerm, false, /*Modifier=*/true, 0},
    {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
    {"FootprintLie", AxiomKind::Acyclic, honestPo, false, false, /*Salt=*/0,
     /*Footprint=*/vocab::Txn},
};

class FixtureModel : public MemoryModel {
public:
  FixtureModel(const char *Name, AxiomList Table)
      : Name(Name), Table(Table) {}
  const char *name() const override { return Name; }
  Arch arch() const override { return Arch::X86; }
  AxiomList axioms() const override { return Table; }

private:
  const char *Name;
  AxiomList Table;
};

/// Audit one fixture with probe sources fitted to the pass under test.
AuditReport auditFixture(const MemoryModel &M, bool Corpus, bool Vocab) {
  AuditOptions O;
  O.Corpus = Corpus;
  O.Vocabularies = Vocab;
  O.Precision = false;
  O.CorpusCandidateCap = 4;
  O.VocabBaseCap = 8;
  O.PlacementCap = 2;
  const MemoryModel *Models[] = {&M};
  return auditModels(Models, {}, O);
}

bool anyFindingFor(const AuditReport &R, std::string_view Axiom) {
  return std::any_of(R.Findings.begin(), R.Findings.end(),
                     [&](const AuditFinding &F) { return F.Axiom == Axiom; });
}

TEST(ContractAudit_, UnderSaltedAxiomIsFlaggedBySaltPass) {
  FixtureModel M("under-salted-fixture", kUnderSaltedTable);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/false);
  ASSERT_FALSE(R.sound());
  ASSERT_FALSE(R.Findings.empty());
  bool SawSalt = false;
  for (const AuditFinding &F : R.Findings) {
    EXPECT_EQ(F.Model, "under-salted-fixture");
    EXPECT_EQ(F.Axiom, "Lying") << auditPassName(F.Pass);
    if (F.Pass == AuditPass::Salt) {
      SawSalt = true;
      EXPECT_EQ(F.Bit, 0);
      EXPECT_EQ(F.BitName, "Toggle");
      EXPECT_FALSE(F.Witness.empty());
      EXPECT_FALSE(F.Probe.empty());
    }
  }
  EXPECT_TRUE(SawSalt);
  EXPECT_FALSE(anyFindingFor(R, "Honest"));
  EXPECT_FALSE(anyFindingFor(R, "Toggle"));
}

TEST(ContractAudit_, NarrowMemoSaltIsFlaggedByMemoizationPass) {
  FixtureModel M("memo-lie-fixture", kMemoLieTable);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/false);
  ASSERT_FALSE(R.sound());
  ASSERT_FALSE(R.Findings.empty());
  for (const AuditFinding &F : R.Findings) {
    // The Axiom::Salt is honest, so the salt pass must NOT fire — the lie
    // lives one layer down, in the memoTerm key, visible only through the
    // shared arena.
    EXPECT_EQ(F.Pass, AuditPass::Memoization);
    EXPECT_EQ(F.Axiom, "MemoLie");
    EXPECT_EQ(F.Bit, 0);
  }
  EXPECT_FALSE(anyFindingFor(R, "Honest"));
}

TEST(ContractAudit_, StaleTxnCacheIsFlaggedByInvalidationPass) {
  FixtureModel M("stale-txn-fixture", kStaleTxnTable);
  AuditReport R = auditFixture(M, /*Corpus=*/false, /*Vocab=*/true);
  ASSERT_FALSE(R.sound());
  ASSERT_FALSE(R.Findings.empty());
  for (const AuditFinding &F : R.Findings) {
    EXPECT_EQ(F.Pass, AuditPass::Invalidation);
    EXPECT_EQ(F.Axiom, "StaleTxn");
    EXPECT_EQ(F.Bit, -1);
  }
  EXPECT_FALSE(anyFindingFor(R, "Honest"));
  EXPECT_GT(R.Counters.Placements, 0u);
}

TEST(ContractAudit_, UnderDeclaredFootprintIsFlaggedByFootprintPass) {
  FixtureModel M("under-footprint-fixture", kUnderFootprintTable);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/true);
  ASSERT_FALSE(R.sound());
  ASSERT_FALSE(R.Findings.empty());
  bool SawFootprint = false;
  for (const AuditFinding &F : R.Findings) {
    // Salt 0 is honest (the term is mask-independent) and nothing is
    // memoized, so only the footprint pass may speak.
    EXPECT_EQ(F.Pass, AuditPass::Footprint) << auditPassName(F.Pass);
    EXPECT_EQ(F.Axiom, "FootprintLie");
    if (F.Pass == AuditPass::Footprint && F.Bit == -1) {
      SawFootprint = true;
      EXPECT_NE(F.Detail.find("disjoint"), std::string::npos);
      EXPECT_FALSE(F.Probe.empty());
    }
  }
  EXPECT_TRUE(SawFootprint);
  // The honest po term, with its always-safe default footprint, and the
  // empty toggle term are exactly as non-empty/empty as they claim.
  EXPECT_FALSE(anyFindingFor(R, "Honest"));
  EXPECT_FALSE(anyFindingFor(R, "Toggle"));
  EXPECT_GT(R.Counters.FootprintChecks, 0u);
}

TEST(ContractAudit_, TxnReadingBaselineIsFlaggedByBaselinePass) {
  FixtureModel M("txn-reading-fixture", kTxnReadingTable);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/true);
  ASSERT_FALSE(R.sound());
  ASSERT_FALSE(R.Findings.empty());
  for (const AuditFinding &F : R.Findings) {
    EXPECT_EQ(F.Pass, AuditPass::Baseline) << auditPassName(F.Pass);
    EXPECT_EQ(F.Model, "txn-reading-fixture");
    EXPECT_EQ(F.Axiom, "ReadsTxn");
    EXPECT_EQ(F.Bit, -1);
    EXPECT_NE(F.Probe.find("+txn"), std::string::npos) << F.Probe;
  }
  EXPECT_FALSE(anyFindingFor(R, "Honest"));
  EXPECT_GT(R.Counters.BaselineChecks, 0u);
}

TEST(ContractAudit_, HonestFixtureAuditsClean) {
  // The control table alone (toggle + honest po) must produce zero
  // findings through every pass and probe source.
  constexpr static Axiom Table[] = {
      {"Toggle", AxiomKind::Acyclic, emptyTerm, false, true, 0},
      {"Honest", AxiomKind::Acyclic, honestPo, false, false, 0},
  };
  FixtureModel M("honest-fixture", Table);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/true);
  EXPECT_TRUE(R.sound()) << (R.Findings.empty()
                                 ? R.Error
                                 : R.Findings.front().Detail);
  EXPECT_GT(R.Counters.Probes, 0u);
  EXPECT_GT(R.Counters.Placements, 0u);
  EXPECT_GT(R.Counters.TermEvals, 0u);
}

TEST(ContractAudit_, DefaultRegistryMatrixIsSound) {
  // The real tables: every architecture, its baseline configuration, and
  // the hardware-substitute wrappers, over corpus and vocabulary probes.
  // This is the tier-1 twin of the CI `tmw_audit --json` gate, at caps
  // sized for test runtime.
  AuditOptions O;
  O.CorpusCandidateCap = 3;
  O.VocabBaseCap = 6;
  O.PlacementCap = 2;
  AuditReport R = auditContracts(O);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  for (const AuditFinding &F : R.Findings)
    ADD_FAILURE() << auditPassName(F.Pass) << " " << F.Model << " / "
                  << F.Axiom << " bit " << F.Bit << " (" << F.BitName
                  << ")\n  probe " << F.Probe << ": " << F.Detail;
  EXPECT_TRUE(R.sound());
  // The canonical spec list is deduplicated ("sc/+baseline" collapses to
  // "sc") but still covers the whole default matrix.
  std::vector<std::string> Specs = R.Specs;
  std::sort(Specs.begin(), Specs.end());
  EXPECT_EQ(std::adjacent_find(Specs.begin(), Specs.end()), Specs.end());
  EXPECT_LE(R.Specs.size(), defaultAuditSpecs().size());
  EXPECT_GE(R.Specs.size(), defaultAuditSpecs().size() - 3);
  EXPECT_GT(R.Counters.Units, 0u);
  EXPECT_GT(R.Counters.CorpusProbes, 0u);
  EXPECT_GT(R.Counters.VocabProbes, 0u);
  EXPECT_GT(R.Counters.Placements, 0u);
  // The footprint pass ran — narrow declared footprints met disjoint
  // probes and every one of them held (zero findings above).
  EXPECT_GT(R.Counters.FootprintChecks, 0u);
  // So did the baseline pass: every +baseline spec's terms held still
  // across the placements of each base.
  EXPECT_GT(R.Counters.BaselineChecks, 0u);
}

TEST(ContractAudit_, UnknownSpecReportsErrorNotCrash) {
  AuditOptions O;
  O.ModelSpecs = {"x86", "not-a-model"};
  AuditReport R = auditContracts(O);
  EXPECT_FALSE(R.sound());
  EXPECT_NE(R.Error.find("not-a-model"), std::string::npos) << R.Error;
  EXPECT_TRUE(R.Findings.empty());
}

TEST(ContractAudit_, JsonReportParsesAndCarriesFindings) {
  FixtureModel M("under-salted-fixture", kUnderSaltedTable);
  AuditReport R = auditFixture(M, /*Corpus=*/true, /*Vocab=*/false);
  ASSERT_FALSE(R.Findings.empty());
  std::string Json = auditReportToJson(R);
  std::string Error;
  std::optional<JsonValue> V = parseJson(Json, &Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->getString("schema"), kAuditReportSchema);
  EXPECT_FALSE(V->getBool("sound", true));
  const JsonValue *Findings = V->get("findings");
  ASSERT_TRUE(Findings && Findings->isArray());
  ASSERT_EQ(Findings->Arr.size(), R.Findings.size());
  const JsonValue &F = Findings->Arr.front();
  EXPECT_EQ(F.getString("model"), "under-salted-fixture");
  EXPECT_EQ(F.getString("axiom"), R.Findings.front().Axiom);
  const JsonValue *Counters = V->get("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_EQ(Counters->getUint("probes"), R.Counters.Probes);
  EXPECT_EQ(Counters->getUint("term_evals"), R.Counters.TermEvals);

  // A sound report says so.
  AuditReport Clean;
  Clean.Events = 3;
  std::optional<JsonValue> CV = parseJson(auditReportToJson(Clean));
  ASSERT_TRUE(CV);
  EXPECT_TRUE(CV->getBool("sound"));
}

TEST(AxiomMask_, BoundaryAtThirtyTwoAxioms) {
  // The 32-axiom cap the asserts in AxiomMask::set/test enforce: bit 31
  // is the last usable index, and normalization at and beyond the cap
  // keeps every bit instead of shifting by >= 32 (which would be UB).
  AxiomMask M = AxiomMask::none();
  M.set(31);
  EXPECT_TRUE(M.test(31));
  EXPECT_EQ(M.bits(), uint32_t(1) << 31);
  M.set(31, false);
  EXPECT_EQ(M.bits(), 0u);

  EXPECT_EQ(AxiomMask::all().normalized(32).bits(), ~uint32_t(0));
  EXPECT_EQ(AxiomMask::all().normalized(33).bits(), ~uint32_t(0));
  EXPECT_EQ(AxiomMask::all().normalized(31).bits(), ~uint32_t(0) >> 1);
  EXPECT_EQ(AxiomMask::all().normalized(0).bits(), 0u);
  // Masks over the same table compare equal iff they agree below the
  // table width, whatever the don't-care bits above hold.
  EXPECT_EQ(AxiomMask::all().normalized(3),
            AxiomMask::none().set(0).set(1).set(2).normalized(3));
}

} // namespace
