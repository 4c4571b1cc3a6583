//===- registry_test.cpp - ModelRegistry and axiom-API tests ------------------==//
///
/// The declarative axiom API: registry spec parsing and round-tripping
/// (parse -> print -> parse), arch-name resolution, the pinned canonical
/// spelling of every base, baseline and single-axiom ablation, the exact
/// grammar (nothing outside it resolves), the axioms `+baseline` turns
/// off, the typed `setAxiomEnabled` path, interned axiom names, and the
/// witness cycles returned by `MemoryModel::checkAll` (the events really
/// form a cycle / violation in the failed axiom's term).
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Enumerator.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tmw;

namespace {

TEST(ModelRegistry_, EveryArchNameResolves) {
  for (Arch A : ModelRegistry::allArchs()) {
    // Canonical spec name, the archName() rendering, and upper-casing all
    // resolve to the same architecture.
    EXPECT_EQ(ModelRegistry::parseArch(ModelRegistry::archSpecName(A)), A);
    EXPECT_EQ(ModelRegistry::parseArch(archName(A)), A);

    std::string Error;
    std::unique_ptr<MemoryModel> M =
        ModelRegistry::parse(ModelRegistry::archSpecName(A), &Error);
    ASSERT_TRUE(M) << Error;
    EXPECT_EQ(M->arch(), A);
    EXPECT_EQ(M->axiomMask().normalized(M->axioms().size()),
              AxiomMask::all().normalized(M->axioms().size()));
  }
  EXPECT_EQ(ModelRegistry::parseArch("ARM"), Arch::Armv8);
  EXPECT_EQ(ModelRegistry::parseArch("aarch64"), Arch::Armv8);
  EXPECT_EQ(ModelRegistry::parseArch("C++"), Arch::Cpp);
  EXPECT_EQ(ModelRegistry::parseArch("z80"), std::nullopt);
}

TEST(ModelRegistry_, AblationSpecPerModel) {
  // At least one ablation spec resolves for every model, and it really
  // changes the mask.
  for (Arch A : ModelRegistry::allArchs()) {
    std::unique_ptr<MemoryModel> Default = ModelRegistry::make(A);
    ASSERT_FALSE(Default->axioms().empty());
    std::string Spec = std::string(ModelRegistry::archSpecName(A)) + "/-" +
                       std::string(Default->axioms().front().Name);
    std::string Error;
    std::unique_ptr<MemoryModel> Ablated =
        ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(Ablated) << Spec << ": " << Error;
    EXPECT_EQ(Ablated->arch(), A);
    unsigned N = static_cast<unsigned>(Default->axioms().size());
    EXPECT_NE(Ablated->axiomMask().normalized(N),
              Default->axiomMask().normalized(N))
        << Spec;
    EXPECT_FALSE(Ablated->axiomEnabled(Default->axioms().front().Name));
  }
}

TEST(ModelRegistry_, SpecRoundTrip) {
  const char *Specs[] = {
      "sc",
      "tsc",
      "tsc/-TxnOrder",
      "x86",
      "x86/-tfence/-StrongIsol",
      "x86/+baseline",
      "power/-TxnOrder",
      "power/-thb/-tprop1/-tprop2/-TxnOrder", // §9 atomicity-only model
      "power/+baseline",
      "power/+baseline/+thb",
      "armv8/-TxnOrder", // §6.2 buggy RTL
      "cpp/+baseline",
      "cpp/-Tsw",
  };
  for (const char *Spec : Specs) {
    std::string Error;
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(M) << Spec << ": " << Error;
    std::string Printed = ModelRegistry::print(*M);
    std::unique_ptr<MemoryModel> Reparsed =
        ModelRegistry::parse(Printed, &Error);
    ASSERT_TRUE(Reparsed) << Printed << ": " << Error;
    EXPECT_EQ(Reparsed->arch(), M->arch()) << Spec;
    unsigned N = static_cast<unsigned>(M->axioms().size());
    EXPECT_EQ(Reparsed->axiomMask().normalized(N),
              M->axiomMask().normalized(N))
        << Spec << " printed as " << Printed;
    // print is canonical: printing the reparse reproduces it.
    EXPECT_EQ(ModelRegistry::print(*Reparsed), Printed) << Spec;
  }
}

TEST(ModelRegistry_, CanonicalSpellingsArePinned) {
  // print() of a resolved spec is the spelling every verdict document
  // and every plan-cache key carries: the six architectures, the wrapper
  // presets and `<arch>-impl` wrappers, each `+baseline`, and every
  // single-axiom ablation of every table. A change to how models are
  // configured must move none of them.
  const std::pair<const char *, const char *> Pins[] = {
      {"sc", "sc"},
      {"tsc", "tsc"},
      {"x86", "x86"},
      {"power", "power"},
      {"armv8", "armv8"},
      {"cpp", "cpp"},
      {"power8", "power8"},
      {"armv8-silicon", "armv8-silicon"},
      {"armv8-rtl", "armv8-rtl"},
      {"sc-impl", "sc-impl"},
      {"tsc-impl", "tsc-impl"},
      {"x86-impl", "x86-impl"},
      {"power-impl", "power-impl"},
      {"armv8-impl", "armv8-impl"},
      {"cpp-impl", "cpp-impl"},
      {"sc/+baseline", "sc"},
      {"tsc/+baseline", "tsc/+baseline"},
      {"x86/+baseline", "x86/+baseline"},
      {"power/+baseline", "power/+baseline"},
      {"armv8/+baseline", "armv8/+baseline"},
      {"cpp/+baseline", "cpp/+baseline"},
      {"sc/-Order", "sc/-Order"},
      {"tsc/-Order", "tsc/-Order"},
      {"tsc/-TxnOrder", "tsc/+baseline"},
      {"x86/-Coherence", "x86/-Coherence"},
      {"x86/-RMWIsol", "x86/-RMWIsol"},
      {"x86/-tfence", "x86/-tfence"},
      {"x86/-Order", "x86/-Order"},
      {"x86/-StrongIsol", "x86/-StrongIsol"},
      {"x86/-TxnOrder", "x86/-TxnOrder"},
      {"power/-Coherence", "power/-Coherence"},
      {"power/-RMWIsol", "power/-RMWIsol"},
      {"power/-tfence", "power/-tfence"},
      {"power/-thb", "power/-thb"},
      {"power/-Order", "power/-Order"},
      {"power/-tprop1", "power/-tprop1"},
      {"power/-tprop2", "power/-tprop2"},
      {"power/-Propagation", "power/-Propagation"},
      {"power/-Observation", "power/-Observation"},
      {"power/-StrongIsol", "power/-StrongIsol"},
      {"power/-TxnOrder", "power/-TxnOrder"},
      {"power/-TxnCancelsRMW", "power/-TxnCancelsRMW"},
      {"armv8/-Coherence", "armv8/-Coherence"},
      {"armv8/-tfence", "armv8/-tfence"},
      {"armv8/-Order", "armv8/-Order"},
      {"armv8/-RMWIsol", "armv8/-RMWIsol"},
      {"armv8/-StrongIsol", "armv8/-StrongIsol"},
      {"armv8/-TxnOrder", "armv8/-TxnOrder"},
      {"armv8/-TxnCancelsRMW", "armv8/-TxnCancelsRMW"},
      {"cpp/-Tsw", "cpp/+baseline"},
      {"cpp/-HbCom", "cpp/-HbCom"},
      {"cpp/-RMWIsol", "cpp/-RMWIsol"},
      {"cpp/-NoThinAir", "cpp/-NoThinAir"},
      {"cpp/-SeqCst", "cpp/-SeqCst"},
      {"power8/-NoLoadBuffering(impl)", "power8/-NoLoadBuffering(impl)"},
  };
  for (const auto &[Spec, Canonical] : Pins) {
    std::string Error;
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(M) << Spec << ": " << Error;
    EXPECT_EQ(ModelRegistry::print(*M), Canonical) << Spec;
  }
}

TEST(ModelRegistry_, CaseInsensitiveSpecs) {
  std::unique_ptr<MemoryModel> A = ModelRegistry::parse("POWER/-txnorder");
  std::unique_ptr<MemoryModel> B = ModelRegistry::parse("power/-TxnOrder");
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  unsigned N = static_cast<unsigned>(B->axioms().size());
  EXPECT_EQ(A->axiomMask().normalized(N), B->axiomMask().normalized(N));
}

TEST(ModelRegistry_, ErrorsNameTheProblem) {
  std::string Error;
  EXPECT_FALSE(ModelRegistry::parse("z80", &Error));
  EXPECT_NE(Error.find("z80"), std::string::npos);
  EXPECT_NE(Error.find("power"), std::string::npos); // lists alternatives

  EXPECT_FALSE(ModelRegistry::parse("x86/-Bogus", &Error));
  EXPECT_NE(Error.find("Bogus"), std::string::npos);
  EXPECT_NE(Error.find("TxnOrder"), std::string::npos); // lists axioms

  EXPECT_FALSE(ModelRegistry::parse("x86/Order", &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ModelRegistry_, AcceptsExactlyItsGrammar) {
  // Empty modifiers, modifiers without a sign, and base aliases outside
  // the documented productions are unknown specs, not silent no-ops.
  for (const char *Bad :
       {"", "/x86", "x86/", "x86//-TxnOrder", "x86/-TxnOrder/", "x86/-",
        "x86/baseline", "x86/all", "x86/Order", "arm-silicon",
        "armv8-buggy-rtl"}) {
    std::string Error;
    EXPECT_FALSE(ModelRegistry::parse(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  // The spellings the grammar does admit, case-insensitively.
  for (const char *Good :
       {"x86/+baseline", "X86/+BASELINE", "x86/+all", "x86/+baseline/+all",
        "armv8-silicon", "armv8-rtl", "arm-impl", "c++/-Tsw"}) {
    std::string Error;
    EXPECT_TRUE(ModelRegistry::parse(Good, &Error)) << Good << ": " << Error;
  }
}

TEST(ModelRegistry_, BaselineDisablesExactlyTheTmAxioms) {
  // `+baseline` is each TM model's non-transactional baseline (the Forbid
  // search's reference, §4.2): exactly these axioms go off.
  const std::pair<const char *, std::vector<std::string_view>> Off[] = {
      {"x86", {"tfence", "StrongIsol", "TxnOrder"}},
      {"power",
       {"tfence", "thb", "tprop1", "tprop2", "StrongIsol", "TxnOrder",
        "TxnCancelsRMW"}},
      {"armv8", {"tfence", "StrongIsol", "TxnOrder", "TxnCancelsRMW"}},
      {"cpp", {"Tsw"}}};
  for (const auto &[Base, Names] : Off) {
    std::string Spec = std::string(Base) + "/+baseline";
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec);
    ASSERT_TRUE(M) << Spec;
    for (std::string_view Name : Names)
      EXPECT_GE(findAxiom(M->axioms(), Name), 0) << Spec << ": " << Name;
    for (const Axiom &Ax : M->axioms())
      EXPECT_EQ(M->axiomEnabled(Ax.Name),
                std::find(Names.begin(), Names.end(), Ax.Name) ==
                    Names.end())
          << Spec << ": " << Ax.Name;
  }

  // A single-axiom spec sets the same mask as the typed toggle, which
  // reports a misspelled name instead of dropping it.
  auto Norm = [](const MemoryModel &M) {
    return M.axiomMask().normalized(M.axioms().size());
  };
  PowerModel NoThb;
  EXPECT_FALSE(NoThb.setAxiomEnabled("Thb", false));
  ASSERT_TRUE(NoThb.setAxiomEnabled("thb", false));
  EXPECT_EQ(Norm(*ModelRegistry::parse("power/-thb")), Norm(NoThb));
}

TEST(AxiomApi, FailedAxiomNamesAreInterned) {
  // Store buffering: forbidden outright under SC (po u com cycle).
  Execution X = shapes::storeBuffering();
  std::unique_ptr<MemoryModel> M = ModelRegistry::parse("sc");
  ConsistencyResult R = M->check(X);
  ASSERT_FALSE(R.Consistent);
  // The view points into the model's static axiom table (no lifetime
  // hazard: the table outlives every result).
  int I = findAxiom(M->axioms(), R.FailedAxiom);
  ASSERT_GE(I, 0);
  EXPECT_EQ(R.FailedAxiom.data(), M->axioms()[I].Name.data());
}

TEST(AxiomApi, CheckAllAgreesWithCheckAndWitnessesAreValid) {
  // Over a mixed corpus, checkAll must agree with check verdict-for-
  // verdict, and every failure witness must actually violate the axiom's
  // term: a cycle for acyclicity, a reflexive point for irreflexivity,
  // the non-empty field for emptiness.
  for (Arch VA : {Arch::X86, Arch::Cpp}) {
    Vocabulary V = Vocabulary::forArch(VA);
    ExecutionEnumerator Enum(V, 3);
    unsigned Seen = 0;
    Enum.forEachBase([&](Execution &Base) {
      return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
        for (Arch MA : ModelRegistry::allArchs()) {
          std::unique_ptr<MemoryModel> M = ModelRegistry::make(MA);
          ExecutionAnalysis A(X);
          ConsistencyResult R = M->check(A);
          CheckReport Report = M->checkAll(A);
          EXPECT_EQ(Report.Consistent, R.Consistent) << M->name();
          EXPECT_EQ(Report.FailedAxiom, R.FailedAxiom) << M->name();
          EXPECT_EQ(Report.Verdicts.size(), M->axioms().size());
          for (const AxiomVerdict &Verdict : Report.Verdicts) {
            if (Verdict.Holds) {
              EXPECT_TRUE(Verdict.Witness.empty());
              continue;
            }
            const Axiom &Ax = *Verdict.Ax;
            Relation Term = Ax.Term(A, M->axiomMask());
            EventSet W = Verdict.Witness;
            EXPECT_FALSE(W.empty()) << Ax.Name;
            switch (Ax.Kind) {
            case AxiomKind::Acyclic: {
              // The witness events really form a cycle in the term:
              // restricted to them, the term is cyclic and every witness
              // event lies on a cycle.
              Relation Restricted =
                  Term.restrictDomain(W).restrictRange(W);
              EXPECT_FALSE(Restricted.isAcyclic()) << Ax.Name;
              Relation TC = Restricted.transitiveClosure();
              for (EventId E : W)
                EXPECT_TRUE(TC.contains(E, E))
                    << Ax.Name << " witness event " << E;
              break;
            }
            case AxiomKind::Irreflexive:
              for (EventId E : W)
                EXPECT_TRUE(Term.contains(E, E)) << Ax.Name;
              break;
            case AxiomKind::Empty:
              EXPECT_EQ(W, Term.field()) << Ax.Name;
              EXPECT_FALSE(Term.isEmpty()) << Ax.Name;
              break;
            }
          }
        }
        return ++Seen < 60;
      });
    });
    EXPECT_GT(Seen, 20u);
  }
}

} // namespace
