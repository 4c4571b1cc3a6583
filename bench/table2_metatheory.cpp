//===- table2_metatheory.cpp - Table 2 ------------------------------------------==//
///
/// Regenerates Table 2: bounded verification of monotonicity (§8.1),
/// compilation of C++ transactions to hardware (§8.2), and lock elision
/// (§8.3), with per-row event bounds, wall-clock time, and whether a
/// counterexample was found.
///
/// Expected shape (paper): monotonicity c'ex for Power/ARMv8 at 2 events,
/// none for x86/C++; compilation sound for all three targets; lock
/// elision c'ex on ARMv8 (quickly), none for x86 / ARMv8-fixed. The
/// paper's Power lock-elision row timed out unresolved (>48h, "U"); our
/// exhaustive small-bound search settles it either way and EXPERIMENTS.md
/// discusses the verdict.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "metatheory/Compilation.h"
#include "metatheory/LockElision.h"
#include "metatheory/Monotonicity.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

using namespace tmw;

int main() {
  bench::header("Table 2: metatheoretical results", "Table 2; §8");
  double Budget = bench::budgetSeconds(60.0);

  std::printf("%-14s %-14s %7s %9s %6s %9s\n", "Property", "Target",
              "Events", "Time(s)", "C'ex?", "Complete");

  // Monotonicity (§8.1).
  {
    struct Row {
      const char *Name;
      const MemoryModel *M;
      Arch A;
      unsigned N;
    };
    X86Model X86;
    PowerModel Power;
    Armv8Model Armv8;
    CppModel Cpp;
    Row Rows[] = {{"x86", &X86, Arch::X86, bench::maxEvents(4)},
                  {"Power", &Power, Arch::Power, 2},
                  {"ARMv8", &Armv8, Arch::Armv8, 2},
                  {"C++", &Cpp, Arch::Cpp, 3}};
    for (const Row &R : Rows) {
      Vocabulary V = Vocabulary::forArch(R.A);
      MonotonicityResult Res = checkMonotonicity(*R.M, V, R.N, Budget);
      std::printf("%-14s %-14s %7u %9.2f %6s %9s\n", "Monotonicity",
                  R.Name, R.N, Res.Seconds,
                  Res.CounterexampleFound ? "yes" : "no",
                  bench::yesNo(Res.Complete));
      if (Res.CounterexampleFound) {
        std::printf("  c'ex X (inconsistent):\n%s", Res.X.dump().c_str());
        std::printf("  c'ex Y (consistent, more stxn):\n%s",
                    Res.Y.dump().c_str());
      }
    }
  }

  // Compilation (§8.2).
  for (Arch A : {Arch::X86, Arch::Power, Arch::Armv8}) {
    unsigned N = bench::maxEvents(3);
    CompilationResult Res = checkCompilation(A, N, Budget);
    std::printf("%-14s C++/%-10s %7u %9.2f %6s %9s\n", "Compilation",
                archName(A), N, Res.Seconds,
                Res.CounterexampleFound ? "yes" : "no",
                bench::yesNo(Res.Complete));
  }

  // Lock elision (§8.3). Bounds follow Table 2: abstract executions up
  // to 7 events (L + body + U per thread).
  {
    X86Model X86Tm;
    std::unique_ptr<MemoryModel> X86Spec =
        ModelRegistry::parse("x86/+baseline");
    PowerModel PowerTm;
    std::unique_ptr<MemoryModel> PowerSpec =
        ModelRegistry::parse("power/+baseline");
    Armv8Model ArmTm;
    std::unique_ptr<MemoryModel> ArmSpec =
        ModelRegistry::parse("armv8/+baseline");
    struct Row {
      const char *Name;
      const MemoryModel *Tm, *Spec;
      Arch A;
      bool Fixed;
    };
    Row Rows[] = {
        {"x86", &X86Tm, X86Spec.get(), Arch::X86, false},
        {"Power", &PowerTm, PowerSpec.get(), Arch::Power, false},
        {"ARMv8", &ArmTm, ArmSpec.get(), Arch::Armv8, false},
        {"ARMv8 (fixed)", &ArmTm, ArmSpec.get(), Arch::Armv8, true}};
    for (const Row &R : Rows) {
      ElisionResult Res =
          checkLockElision(*R.Tm, *R.Spec, R.A, R.Fixed, 7, Budget);
      std::printf("%-14s %-14s %7u %9.2f %6s %9s\n", "Lock elision",
                  R.Name, 7, Res.Seconds,
                  Res.CounterexampleFound ? "yes" : "no",
                  bench::yesNo(Res.Complete));
      if (Res.CounterexampleFound && R.A == Arch::Armv8)
        std::printf("  (ARMv8 c'ex = Example 1.1 / Fig. 10; see "
                    "bench/fig10_lock_elision for the full rendering)\n");
      if (Res.CounterexampleFound && R.A == Arch::Power)
        std::printf("  (paper row: >48h timeout, unresolved 'U'; our "
                    "exhaustive bound-9-concrete search finds a model-level "
                    "witness — see EXPERIMENTS.md)\n");
    }
  }

  std::printf("\nPaper: monotonicity c'ex Power/ARMv8 at 2 events (<1s), "
              "x86 6 events 20m none,\nC++ 6 events 91h none; compilation "
              "sound to all targets at 6 events;\nlock elision c'ex ARMv8 "
              "at 7 events in 63s, none for x86 (>48h) and ARMv8-fixed.\n");
  return 0;
}
