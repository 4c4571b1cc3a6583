//===- sec52_power_txn.cpp - §5.2 executions (1)(2)(3) and Remark 5.1 ----------==//
///
/// Regenerates the §5.2 case analysis: each TM addition to the Power
/// model (tprop1, tprop2, thb) is shown forbidding exactly its motivating
/// execution, with the ablated model admitting it; the Remark 5.1
/// read-only-transaction shapes stay allowed ("the model errs on the side
/// of caution").
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "execution/Builder.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"

using namespace tmw;

namespace {

// See tests/TestGraphs.h for the shapes; duplicated here so the bench is
// a standalone demonstration of the public API.

Execution wrcTxnObserved() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(2, 1);
  EventId Rx2 = B.read(2, 0);
  B.rf(Wx, Rx);
  B.rf(Wy, Ry);
  B.addr(Ry, Rx2);
  B.txn({Rx, Wy});
  return B.build();
}

Execution wrcTxnWrite() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(2, 1);
  EventId Rx2 = B.read(2, 0);
  B.rf(Wx, Rx);
  B.rf(Wy, Ry);
  B.addr(Rx, Wy);
  B.addr(Ry, Rx2);
  B.txn({Wx});
  return B.build();
}

Execution iriwTxns(bool BothTxns) {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  EventId Ry = B.read(1, 1);
  EventId Ry2 = B.read(2, 1);
  EventId Rx2 = B.read(2, 0);
  EventId Wy = B.write(3, 1, MemOrder::NonAtomic, 1);
  B.rf(Wx, Rx);
  B.rf(Wy, Ry2);
  B.addr(Rx, Ry);
  B.addr(Ry2, Rx2);
  B.txn({Wx});
  if (BothTxns)
    B.txn({Wy});
  return B.build();
}

Execution remark51() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  EventId Ry = B.read(1, 1);
  EventId Wy = B.write(2, 1, MemOrder::NonAtomic, 1);
  B.fence(2, FenceKind::Sync);
  EventId Rx2 = B.read(2, 0);
  B.rf(Wx, Rx);
  B.txn({Rx, Ry});
  (void)Wy;
  (void)Rx2;
  return B.build();
}

void row(const char *Name, const Execution &X, const char *PaperVerdict) {
  PowerModel Full;
  auto Ablated = [&](const char *Spec) {
    return bench::yesNo(ModelRegistry::parse(Spec)->consistent(X));
  };
  ConsistencyResult C = Full.check(X);
  std::printf("%-24s %-10s %-14s %-9s %-9s %-9s   paper: %s\n", Name,
              C.Consistent ? "allowed" : "FORBIDDEN",
              C.FailedAxiom.empty() ? "-" : C.FailedAxiom.data(),
              Ablated("power/-tprop1"), Ablated("power/-tprop2"),
              Ablated("power/-thb"), PaperVerdict);
}

} // namespace

int main() {
  bench::header("§5.2: the Power TM additions on their motivating tests",
                "§5.2 executions (1), (2), (3); Remark 5.1");
  std::printf("%-24s %-10s %-14s %-9s %-9s %-9s\n", "execution",
              "Power+TM", "failed axiom", "-tprop1?", "-tprop2?",
              "-thb?");
  row("(1) WRC txn observes", wrcTxnObserved(),
      "forbidden (integrated barrier)");
  row("(2) WRC txn write", wrcTxnWrite(),
      "forbidden (multicopy-atomic txn stores)");
  row("(3) IRIW two txns", iriwTxns(true),
      "forbidden (transaction serialisation)");
  row("(3') IRIW one txn", iriwTxns(false), "allowed (observed on POWER8)");
  row("Remark 5.1 read-only", remark51(),
      "allowed (manual ambiguous; model errs to allow)");
  std::printf("\nColumns -tprop1?/-tprop2?/-thb?: does the ablated model "
              "allow the execution\n(yes on the motivating row = that "
              "axiom is what forbids it).\n");
  return 0;
}
