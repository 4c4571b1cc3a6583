//===- ContractAudit.cpp - Differential metadata-contract auditor ------------==//

#include "audit/ContractAudit.h"

#include "enumerate/Candidates.h"
#include "enumerate/Enumerator.h"
#include "lint/Lint.h"
#include "litmus/Library.h"
#include "models/ModelRegistry.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

using namespace tmw;

const char *tmw::auditPassName(AuditPass P) {
  switch (P) {
  case AuditPass::Salt:
    return "salt";
  case AuditPass::Memoization:
    return "memoization";
  case AuditPass::Invalidation:
    return "invalidation";
  case AuditPass::Footprint:
    return "footprint";
  case AuditPass::Baseline:
    return "baseline";
  }
  return "?";
}

std::vector<std::string> tmw::defaultAuditSpecs() {
  std::vector<std::string> Specs;
  for (Arch A : ModelRegistry::allArchs()) {
    Specs.emplace_back(ModelRegistry::archSpecName(A));
    Specs.push_back(std::string(ModelRegistry::archSpecName(A)) +
                    "/+baseline");
  }
  for (const char *W : ModelRegistry::wrapperSpecs())
    Specs.emplace_back(W);
  return Specs;
}

namespace {

/// One audit unit: an axiom-table entry of one audited model, evaluated
/// under that model's configured mask. Units are deduplicated by
/// `(Term, Mask & Salt, Salt, table size)` — by the very salt contract
/// under audit this key determines the whole differential computation
/// (and if the salt lies, the mask flips from any one representative
/// expose it), so shared `terms::*` entries are audited once, not once
/// per table that references them.
struct Unit {
  size_t Spec;         ///< Index into the audited model list (first owner).
  unsigned AxIdx;      ///< Index in that model's axiom table.
  const Axiom *Ax;     ///< The table entry (static storage).
  AxiomMask Mask;      ///< The owning model's configured mask.
  unsigned NumAxioms;  ///< Table size = number of meaningful mask bits.
  uint32_t Salt;       ///< Declared salt, normalized to the table width.
  uint32_t Footprint;  ///< Declared vocabulary footprint (Axiom.h).
  uint32_t SaltSeen = 0; ///< Salt bits some probe's output depended on.
  /// The first spec that checks this term while enabling no TM axiom, and
  /// the entry's index in its table; -1 when none does (pass 5).
  int BlindSpec = -1;
  unsigned BlindAxIdx = 0;
};

class Auditor {
public:
  Auditor(std::span<const MemoryModel *const> Models,
          std::span<const std::string> Names, const AuditOptions &O)
      : Models(Models), O(O) {
    for (size_t I = 0; I < Models.size(); ++I)
      R.Specs.push_back(I < Names.size() ? Names[I]
                                         : std::string(Models[I]->name()));
    R.Events = O.Events;
    collectUnits();
  }

  AuditReport run() {
    if (O.Corpus)
      sweepCorpus();
    if (O.Vocabularies)
      sweepVocabularies();
    if (O.Precision)
      reportPrecision();
    R.Counters.Units = Units.size();
    return std::move(R);
  }

private:
  /// Bits below the table width, i.e. the mask bits that can matter.
  static uint32_t tableBits(unsigned NumAxioms) {
    return NumAxioms >= 32 ? ~uint32_t(0)
                           : ((uint32_t(1) << NumAxioms) - 1);
  }

  void collectUnits() {
    // Key: term identity under the salt contract (see Unit), plus the
    // declared footprint — two tables sharing a term but declaring
    // different footprints are distinct pass-4 claims, so each gets its
    // own unit (the plan *unions* such footprints; the audit must check
    // each declaration as written).
    std::map<std::tuple<const void *, uint32_t, uint32_t, unsigned,
                        uint32_t>,
             size_t>
        Seen;
    for (size_t S = 0; S < Models.size(); ++S) {
      AxiomList Axioms = Models[S]->axioms();
      unsigned N = static_cast<unsigned>(Axioms.size());
      AxiomMask M = Models[S]->axiomMask();
      bool Blind = true;
      for (unsigned I = 0; I < N; ++I)
        Blind = Blind && !(Axioms[I].Tm && M.test(I));
      for (unsigned I = 0; I < N; ++I) {
        const Axiom &Ax = Axioms[I];
        uint32_t Salt = Ax.Salt & tableBits(N);
        auto [It, New] = Seen.try_emplace(
            {reinterpret_cast<const void *>(Ax.Term),
             M.normalized(N).bits() & Salt, Salt, N, Ax.Footprint},
            Units.size());
        if (New)
          Units.push_back({S, I, &Ax, M, N, Salt, Ax.Footprint});
        Unit &U = Units[It->second];
        if (Blind && M.test(I) && !Ax.Modifier && U.BlindSpec < 0) {
          U.BlindSpec = static_cast<int>(S);
          U.BlindAxIdx = I;
        }
      }
    }
  }

  /// \p U as the blind spec's table entry, for a pass-5 finding.
  Unit blindOwner(const Unit &U) const {
    Unit Owner = U;
    Owner.Spec = static_cast<size_t>(U.BlindSpec);
    Owner.AxIdx = U.BlindAxIdx;
    Owner.Ax = &Models[Owner.Spec]->axioms()[U.BlindAxIdx];
    return Owner;
  }

  void finding(AuditPass Pass, const Unit &U, int Bit,
               const std::string &Probe, const Execution &X,
               std::string Detail) {
    // One report per (pass, unit, bit): the first witness is enough, and
    // without the dedup a single bad salt would flood the report with one
    // finding per probe.
    if (!Reported.insert({Pass, U.Spec, U.AxIdx, Bit}).second)
      return;
    if (O.MaxFindings && R.Findings.size() >= O.MaxFindings) {
      R.Truncated = true;
      return;
    }
    AuditFinding F;
    F.Pass = Pass;
    F.Model = R.Specs[U.Spec];
    F.Axiom = std::string(U.Ax->Name);
    F.Bit = Bit;
    if (Bit >= 0 && static_cast<unsigned>(Bit) < U.NumAxioms)
      F.BitName = std::string(Models[U.Spec]->axioms()[Bit].Name);
    F.Probe = Probe;
    F.Detail = std::move(Detail);
    F.Witness = X.dump();
    R.Findings.push_back(std::move(F));
  }

  Relation eval(const Unit &U, const ExecutionAnalysis &A, AxiomMask M) {
    ++R.Counters.TermEvals;
    return U.Ax->Term(A, M);
  }

  /// Passes 1 + 2 over one probe execution: salt soundness on fresh
  /// Recompute analyses, memoization coherence through one shared
  /// memoized arena (reset per probe, shared across every unit and mask
  /// below, exactly as one production arena serves many models).
  void auditProbe(const Execution &X, const std::string &Probe) {
    ++R.Counters.Probes;
    uint32_t Vocab = executionVocabulary(X);
    retarget(Fresh, X, AnalysisCaching::Recompute);
    retarget(Shared, X, AnalysisCaching::Memoized);
    for (Unit &U : Units) {
      bool Disjoint = (U.Footprint & Vocab) == 0;
      Relation BaseFresh = eval(U, *Fresh, U.Mask);
      Relation BaseMemo = eval(U, *Shared, U.Mask);
      if (!(BaseMemo == BaseFresh))
        finding(AuditPass::Memoization, U, -1, Probe, X,
                "memoized evaluation differs from fresh recompute at the "
                "configured mask");
      // Pass 4: on a footprint-disjoint probe the declared contract
      // promises an empty relation (the basis of the plan's vacuous-
      // verdict discharge). Checked at the configured mask and at every
      // flipped mask below — a footprint must hold at any mask.
      if (Disjoint) {
        ++R.Counters.FootprintChecks;
        if (!BaseFresh.isEmpty())
          finding(AuditPass::Footprint, U, -1, Probe, X,
                  "term produced edges on an execution whose vocabulary is "
                  "disjoint from its declared Footprint (under-declared "
                  "footprint: specialization would discharge a live "
                  "constraint)");
      }
      for (unsigned B = 0; B < U.NumAxioms; ++B) {
        AxiomMask Flipped = U.Mask;
        Flipped.set(B, !U.Mask.test(B));
        Relation FlipFresh = eval(U, *Fresh, Flipped);
        if (Disjoint && !FlipFresh.isEmpty())
          finding(AuditPass::Footprint, U, static_cast<int>(B), Probe, X,
                  "term produced edges under a flipped mask on an execution "
                  "whose vocabulary is disjoint from its declared Footprint");
        bool Changed = !(FlipFresh == BaseFresh);
        if ((U.Salt >> B) & 1) {
          if (Changed)
            U.SaltSeen |= uint32_t(1) << B;
        } else if (Changed) {
          finding(AuditPass::Salt, U, static_cast<int>(B), Probe, X,
                  "term output depends on a mask bit outside its declared "
                  "Salt (under-declared salt aliases distinct relations in "
                  "the cross-spec plan)");
        }
        Relation FlipMemo = eval(U, *Shared, Flipped);
        if (!(FlipMemo == FlipFresh))
          finding(AuditPass::Memoization, U, static_cast<int>(B), Probe, X,
                  "shared memoized arena served a stale relation after a "
                  "mask flip (memoTerm salt narrower than the term's real "
                  "footprint)");
      }
    }
  }

  void sweepCorpus() {
    for (const CorpusEntry &E : sharedCorpus()) {
      uint64_t Taken = 0;
      forEachCandidate(E.Prog, [&](const Candidate &C) {
        ++R.Counters.CorpusProbes;
        auditProbe(C.X, "corpus:" + E.Name + "#" + std::to_string(Taken));
        return !O.CorpusCandidateCap || ++Taken < O.CorpusCandidateCap;
      });
    }
  }

  void sweepVocabularies() {
    for (Arch A : ModelRegistry::allArchs()) {
      std::string ArchTag =
          std::string("vocab:") + ModelRegistry::archSpecName(A);
      ExecutionEnumerator Enum(Vocabulary::forArch(A), O.Events);
      uint64_t Bases = 0;
      Enum.forEachBase([&](Execution &Base) {
        std::string BaseTag = ArchTag + "#" + std::to_string(Bases);
        ++R.Counters.VocabProbes;
        auditProbe(Base, BaseTag);
        // Pass 3 setup: populate a memoized arena on the base, then let
        // each placement mutate the execution and invalidate exactly the
        // transactional slice, as the placement search does.
        retarget(TxnArena, Base, AnalysisCaching::Memoized);
        retarget(TxnFresh, Base, AnalysisCaching::Recompute);
        for (Unit &U : Units)
          eval(U, *TxnArena, U.Mask);
        // Pass 5 setup: the baseline terms on the base itself.
        OnBase.resize(Units.size());
        for (size_t I = 0; I < Units.size(); ++I)
          if (Units[I].BlindSpec >= 0)
            OnBase[I] = eval(Units[I], *TxnFresh, Units[I].Mask);
        ++R.Counters.Bases;
        uint64_t Placements = 0;
        Enum.forEachTxnPlacement(Base, [&](Execution &X) {
          std::string Tag = BaseTag + "+txn" + std::to_string(Placements);
          ++R.Counters.Placements;
          TxnArena->invalidateTransactionalState();
          for (size_t I = 0; I < Units.size(); ++I) {
            const Unit &U = Units[I];
            Relation Memo = eval(U, *TxnArena, U.Mask);
            Relation FreshR = eval(U, *TxnFresh, U.Mask);
            if (!(Memo == FreshR))
              finding(AuditPass::Invalidation, U, -1, Tag, X,
                      "cached term survived invalidateTransactionalState() "
                      "but its value depends on the transaction labelling "
                      "(stale relation served to the placement search)");
            if (U.BlindSpec < 0)
              continue;
            ++R.Counters.BaselineChecks;
            if (!(FreshR == OnBase[I]))
              finding(AuditPass::Baseline, blindOwner(U), -1, Tag, X,
                      "term of a spec that enables no TM axiom differs on "
                      "a transaction placement from its base (a baseline "
                      "that reads transactions: the Forbid search would "
                      "prune or settle on the base wrongly)");
          }
          // The placements double as salt/memoization probes: they are
          // the executions where transactional mask bits (tfence, thb,
          // Tsw, ...) actually change term outputs.
          ++R.Counters.VocabProbes;
          auditProbe(X, Tag);
          return !O.PlacementCap || ++Placements < O.PlacementCap;
        });
        return !O.VocabBaseCap || ++Bases < O.VocabBaseCap;
      });
    }
  }

  void reportPrecision() {
    for (const Unit &U : Units) {
      uint32_t Unused = U.Salt & ~U.SaltSeen;
      for (unsigned B = 0; B < U.NumAxioms; ++B)
        if ((Unused >> B) & 1) {
          SaltPrecisionNote N;
          N.Model = R.Specs[U.Spec];
          N.Axiom = std::string(U.Ax->Name);
          N.Bit = static_cast<int>(B);
          N.BitName = std::string(Models[U.Spec]->axioms()[B].Name);
          R.Precision.push_back(std::move(N));
        }
    }
  }

  static void retarget(std::optional<ExecutionAnalysis> &Arena,
                       const Execution &X, AnalysisCaching Mode) {
    if (Arena && Arena->caching() == Mode)
      Arena->reset(X);
    else
      Arena.emplace(X, Mode);
  }

  std::span<const MemoryModel *const> Models;
  const AuditOptions &O;
  AuditReport R;
  std::vector<Unit> Units;
  std::set<std::tuple<AuditPass, size_t, unsigned, int>> Reported;
  /// Arenas reused across probes (reset() is an O(1) generation bump).
  std::optional<ExecutionAnalysis> Fresh, Shared, TxnArena, TxnFresh;
  /// Per unit, its term on the current base (blind units only).
  std::vector<Relation> OnBase;
};

} // namespace

AuditReport tmw::auditModels(std::span<const MemoryModel *const> Models,
                             std::span<const std::string> Names,
                             const AuditOptions &O) {
  return Auditor(Models, Names, O).run();
}

AuditReport tmw::auditContracts(const AuditOptions &O) {
  std::vector<std::string> Specs =
      O.ModelSpecs.empty() ? defaultAuditSpecs() : O.ModelSpecs;
  std::vector<std::unique_ptr<MemoryModel>> Owned;
  std::vector<const MemoryModel *> Raw;
  std::vector<std::string> Names;
  for (const std::string &Spec : Specs) {
    std::string Error;
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec, &Error);
    if (!M) {
      AuditReport R;
      R.Error = "model spec '" + Spec + "': " + Error;
      return R;
    }
    // Canonical rendering, so the report names round-trippable specs.
    // Dedup by that rendering: the default matrix's "<arch>/+baseline"
    // collapses to the plain arch for models without TM axioms.
    std::string Name = ModelRegistry::print(*M);
    if (std::find(Names.begin(), Names.end(), Name) != Names.end())
      continue;
    Names.push_back(std::move(Name));
    Raw.push_back(M.get());
    Owned.push_back(std::move(M));
  }
  return auditModels(Raw, Names, O);
}
