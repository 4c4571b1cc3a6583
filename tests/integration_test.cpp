//===- integration_test.cpp - End-to-end pipelines ----------------------------==//
///
/// Exercises the full paper workflows across module boundaries:
///
///  1. synthesise Forbid tests -> convert to litmus programs -> run on the
///     simulated hardware -> conformance verdicts;
///  2. the lock-elision discovery -> litmus rendering of Example 1.1;
///  3. candidate enumeration agrees with the operational machine on
///     programs with transactions.
///
//===----------------------------------------------------------------------===//

#include "enumerate/Candidates.h"
#include "execution/Builder.h"
#include "hw/ImplModel.h"
#include "hw/TsoMachine.h"
#include "litmus/FromExecution.h"
#include "litmus/Parser.h"
#include "litmus/Printer.h"
#include "metatheory/LockElision.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"
#include "models/X86Model.h"
#include "synth/Conformance.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(PipelineTest, SynthesiseConvertRunX86) {
  X86Model Tm;
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ForbidSuite Suite = synthesizeForbid(Tm, *Baseline, V, 4, 120.0);
  ASSERT_FALSE(Suite.Tests.empty());

  unsigned Checked = 0;
  for (const Execution &X : Suite.Tests) {
    if (++Checked > 10)
      break; // keep the test fast; the bench runs the full suite
    ExecutionToProgram Conv = programFromExecution(X, "forbid");
    // The intended execution is among the candidates and matches the
    // postcondition.
    unsigned Matching = 0;
    bool IntendedConsistentSomewhere = false;
    for (const Candidate &C : enumerateCandidates(Conv.Prog))
      if (C.O.satisfies(Conv.Prog)) {
        ++Matching;
        IntendedConsistentSomewhere |= Baseline->consistent(C.X);
      }
    EXPECT_GE(Matching, 1u);
    EXPECT_TRUE(IntendedConsistentSomewhere);
    // Never observable on the TSO+TSX machine.
    TsoMachine M(Conv.Prog);
    EXPECT_FALSE(M.postconditionObservable()) << printGeneric(Conv.Prog);
  }
}

TEST(PipelineTest, ElisionWitnessRendersAsExample11) {
  Armv8Model Tm;
  std::unique_ptr<MemoryModel> Spec = ModelRegistry::parse("armv8/+baseline");
  ElisionResult R =
      checkLockElision(Tm, *Spec, Arch::Armv8, false, 7, 300.0);
  ASSERT_TRUE(R.CounterexampleFound);

  // The abstract side renders with lock()/unlock() pseudo-calls.
  Program Abstract = programFromExecution(R.Abstract, "example-1.1").Prog;
  std::string Txt = printGeneric(Abstract);
  EXPECT_NE(Txt.find("lock()"), std::string::npos);
  EXPECT_NE(Txt.find("elided"), std::string::npos);

  // The concrete side renders as an ARMv8 litmus test with exclusive and
  // transactional instructions.
  Program Concrete = programFromExecution(R.Concrete, "example-1.1").Prog;
  std::string Asm = printAsm(Concrete, Arch::Armv8);
  EXPECT_NE(Asm.find("LDAXR"), std::string::npos);
  EXPECT_NE(Asm.find("STXR"), std::string::npos);
  EXPECT_NE(Asm.find("TXBEGIN"), std::string::npos);
  EXPECT_NE(Asm.find("STLR"), std::string::npos);
}

TEST(PipelineTest, OperationalAndAxiomaticAgreeOnTransactionalTests) {
  // For a curated set of transactional programs, the set of outcomes
  // reachable on the TSO+TSX machine is a subset of what the axiomatic
  // x86+TM model allows (machine soundness), and the postcondition
  // verdicts agree.
  const char *Sources[] = {
      R"(name txn-mp
loc ok 1
thread 0
  txbegin
  store x 1
  store y 1
  txend
thread 1
  load y
  load x
post mem ok 1
post reg 1 r0 1
post reg 1 r1 0
)",
      R"(name txn-sb
loc ok 1
thread 0
  txbegin
  store x 1
  txend
  load y
thread 1
  txbegin
  store y 1
  txend
  load x
post mem ok 1
post reg 0 r3 0
post reg 1 r3 0
)",
  };
  X86Model Model;
  for (const char *Src : Sources) {
    ParseResult PR = parseProgram(Src);
    ASSERT_TRUE(static_cast<bool>(PR)) << PR.Error;
    TsoMachine M(PR.Prog);
    std::vector<Outcome> Operational = M.reachableOutcomes();
    std::vector<Outcome> Axiomatic = allowedOutcomes(PR.Prog, Model);
    for (const Outcome &O : Operational)
      EXPECT_TRUE(std::find(Axiomatic.begin(), Axiomatic.end(), O) !=
                  Axiomatic.end())
          << PR.Prog.Name << ": machine outcome " << O.str(PR.Prog)
          << " not allowed by the model";
    EXPECT_FALSE(M.postconditionObservable()) << PR.Prog.Name;
    EXPECT_FALSE(postconditionReachable(PR.Prog, Model)) << PR.Prog.Name;
  }
}

TEST(PipelineTest, DslRoundTripPreservesModelVerdicts) {
  // Print a generated litmus test to the DSL, parse it back, and check
  // the postcondition verdict is unchanged.
  ExecutionBuilder B;
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 0);
  B.read(0, 1);
  EventId W1 = B.write(1, 1, MemOrder::NonAtomic, 0);
  B.read(1, 0);
  B.txn({W0});
  B.txn({W1});
  Execution X = B.build();

  Program P = programFromExecution(X, "sb-txn").Prog;
  ParseResult R = parseProgram(printDsl(P));
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;

  X86Model Model;
  EXPECT_EQ(postconditionReachable(P, Model),
            postconditionReachable(R.Prog, Model));
  std::unique_ptr<MemoryModel> Baseline =
      ModelRegistry::parse("x86/+baseline");
  EXPECT_EQ(postconditionReachable(P, *Baseline),
            postconditionReachable(R.Prog, *Baseline));
}

} // namespace
