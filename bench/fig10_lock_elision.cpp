//===- fig10_lock_elision.cpp - Fig. 10, Example 1.1, Appendix B, Table 3 ------==//
///
/// Regenerates the lock-elision finding end to end: the Table 3 mapping,
/// the automatically discovered Fig. 10 abstract/concrete pair, and the
/// Example 1.1 / Appendix B litmus tests, with verdicts for the broken
/// and DMB-fixed spinlocks.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "execution/Builder.h"
#include "litmus/FromExecution.h"
#include "litmus/Printer.h"
#include "metatheory/LockElision.h"
#include "models/Armv8Model.h"
#include "models/ModelRegistry.h"

using namespace tmw;

namespace {

Execution example11(bool Fixed, bool LoadVariant) {
  ExecutionBuilder B;
  constexpr LocId X = 0, M = 1;
  EventId Rm = B.read(0, M, MemOrder::Acquire);
  EventId Wm = B.write(0, M, MemOrder::NonAtomic, 1);
  B.rmw(Rm, Wm);
  B.ctrl(Rm, Wm);
  if (Fixed)
    B.fence(0, FenceKind::Dmb);
  if (!LoadVariant) {
    EventId Rx = B.read(0, X);
    EventId Wx = B.write(0, X, MemOrder::NonAtomic, 2);
    B.data(Rx, Wx);
    B.write(0, M, MemOrder::Release, 0);
    EventId RmT = B.read(1, M);
    EventId WxT = B.write(1, X, MemOrder::NonAtomic, 1);
    B.txn({RmT, WxT});
    B.co(WxT, Wx);
  } else {
    EventId Wx1 = B.write(0, X, MemOrder::NonAtomic, 1);
    EventId Wx2 = B.write(0, X, MemOrder::NonAtomic, 2);
    B.co(Wx1, Wx2);
    B.write(0, M, MemOrder::Release, 0);
    EventId RmT = B.read(1, M);
    EventId RxT = B.read(1, X);
    B.txn({RmT, RxT});
    B.rf(Wx1, RxT);
  }
  return B.build();
}

} // namespace

int main() {
  bench::header("Fig. 10 / Example 1.1 / Appendix B: lock elision on ARMv8",
                "§1.1, §8.3, Fig. 10, Table 3, Appendix B");
  Armv8Model Tm;
  std::unique_ptr<MemoryModel> Spec = ModelRegistry::parse("armv8/+baseline");

  // Table 3: the pi mapping in effect.
  std::printf("Table 3 mapping (events produced per method call):\n"
              "  L  -> x86: R;R;W+rmw | Power: R;W+rmw,ctrl;isync | "
              "ARMv8: R(acq);W+rmw,ctrl [fixed: +dmb]\n"
              "  U  -> x86: W | Power: sync;W | ARMv8: W(rel)\n"
              "  Lt -> plain R of the lock variable (TxnReadsLockFree)\n"
              "  Ut -> (nothing)\n\n");

  // The automatic discovery.
  ElisionResult R = checkLockElision(Tm, *Spec, Arch::Armv8, false, 7,
                                     bench::budgetSeconds(120.0));
  std::printf("ARMv8 search: %s after %llu abstract / %llu concrete "
              "executions in %.3fs (paper: Memalloy finds it in 63s)\n\n",
              R.CounterexampleFound ? "counterexample FOUND"
                                    : "no counterexample",
              static_cast<unsigned long long>(R.AbstractChecked),
              static_cast<unsigned long long>(R.ConcreteChecked),
              R.Seconds);
  if (R.CounterexampleFound) {
    std::printf("Abstract execution (X of Fig. 10):\n%s\n",
                R.Abstract.dump().c_str());
    std::printf("Concrete execution (Y of Fig. 10):\n%s\n",
                R.Concrete.dump().c_str());
    Program P = programFromExecution(R.Concrete, "fig10-concrete").Prog;
    std::printf("As an ARMv8 litmus test:\n%s\n",
                printAsm(P, Arch::Armv8).c_str());
  }

  // The fixed spinlock.
  ElisionResult Fixed = checkLockElision(Tm, *Spec, Arch::Armv8, true, 7,
                                         bench::budgetSeconds(120.0));
  std::printf("ARMv8 with DMB-fixed lock(): %s (complete: %s)\n\n",
              Fixed.CounterexampleFound ? "counterexample found (BUG)"
                                        : "no counterexample",
              bench::yesNo(Fixed.Complete));

  // Example 1.1 and Appendix B as concrete executions.
  struct Row {
    const char *Name;
    bool Fix, LoadVariant;
  } Rows[] = {{"Example 1.1 (x=2 violation)", false, false},
              {"Example 1.1 + DMB fix", true, false},
              {"Appendix B  (W7=1 violation)", false, true},
              {"Appendix B  + DMB fix", true, true}};
  std::printf("%-30s %-12s %s\n", "execution", "ARMv8+TM", "failed axiom");
  for (const Row &Rw : Rows) {
    Execution X = example11(Rw.Fix, Rw.LoadVariant);
    ConsistencyResult C = Tm.check(X);
    std::printf("%-30s %-12s %s\n", Rw.Name,
                C.Consistent ? "CONSISTENT" : "forbidden",
                C.FailedAxiom.empty() ? "-" : C.FailedAxiom.data());
  }

  std::printf("\nExample 1.1 as the paper's litmus pair:\n\n%s\n",
              printAsm(programFromExecution(example11(false, false),
                                            "example-1.1")
                           .Prog,
                       Arch::Armv8)
                  .c_str());
  std::printf("Paper: the unfixed executions are consistent (lock elision "
              "unsound);\nthe DMB restores mutual exclusion at the cost of "
              "portability/performance.\n");
  return 0;
}
