//===- LockElision.cpp - Checking lock elision (§8.3) --------------------------==//

#include "metatheory/LockElision.h"

#include "enumerate/Enumerator.h"

#include <algorithm>
#include <chrono>
#include <functional>

using namespace tmw;

bool tmw::holdsCrOrder(const ExecutionAnalysis &A) {
  return weakLift(A.po() | A.com(), A.scr()).isAcyclic();
}

Execution tmw::elideLocks(const Execution &Abstract, Arch A,
                          bool FixedSpinlock) {
  unsigned N = Abstract.size();
  LocId LockVar = static_cast<LocId>(Abstract.numLocations());

  // Size of the implementation of each method call (Table 3).
  auto ExpansionSize = [&](EventKind K) -> unsigned {
    switch (K) {
    case EventKind::Lock:
      switch (A) {
      case Arch::X86:
        return 3; // test read; locked read; locked write
      case Arch::Power:
        return 3; // lwarx; stwcx.; isync
      case Arch::Armv8:
        return FixedSpinlock ? 3u : 2u; // ldaxr; stxr; (dmb)
      default:
        return 0;
      }
    case EventKind::Unlock:
      return A == Arch::Power ? 2 : 1; // (sync;) store
    case EventKind::TxLock:
      return 1; // read of the lock variable, inside the transaction
    case EventKind::TxUnlock:
      return 0; // vanishes
    default:
      return 1;
    }
  };

  unsigned TargetCount = 0;
  for (unsigned E = 0; E < N; ++E)
    TargetCount += ExpansionSize(Abstract.event(E).Kind);
  assert(TargetCount <= kMaxEvents && "concrete execution too large");

  Execution Y(TargetCount);
  std::vector<int> MainOf(N, -1);

  unsigned Next = 0;
  unsigned NumThreads = Abstract.numThreads();
  int NextTxn = static_cast<int>(Abstract.numTxns());

  for (unsigned T = 0; T < NumThreads; ++T) {
    std::vector<EventId> Es;
    for (EventId E : Abstract.ofThread(T))
      Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&Abstract](EventId P, EventId Q) {
      return Abstract.Po.contains(P, Q);
    });

    // Transaction class for the elided CR currently open on this thread.
    int ElidedTxn = kNoClass;

    auto Emit = [&](const Event &Ev, int Txn) {
      Y.event(Next) = Ev;
      Y.event(Next).Thread = T;
      Y.Txn[Next] = Txn;
      return static_cast<int>(Next++);
    };

    for (EventId E : Es) {
      const Event &Ev = Abstract.event(E);
      switch (Ev.Kind) {
      case EventKind::Lock: {
        if (A == Arch::X86) {
          Event Test;
          Test.Kind = EventKind::Read;
          Test.Loc = LockVar;
          Emit(Test, kNoClass);
        }
        Event Rm;
        Rm.Kind = EventKind::Read;
        Rm.Loc = LockVar;
        if (A == Arch::Armv8)
          Rm.Order = MemOrder::Acquire; // LDAXR
        int R = Emit(Rm, kNoClass);
        Event Wm;
        Wm.Kind = EventKind::Write;
        Wm.Loc = LockVar;
        Wm.WrittenValue = 1; // taken
        int W = Emit(Wm, kNoClass);
        Y.Rmw.insert(R, W);
        MainOf[E] = R;
        if (A == Arch::Power) {
          Event Isync;
          Isync.Kind = EventKind::Fence;
          Isync.Fence = FenceKind::ISync;
          Emit(Isync, kNoClass);
        }
        if (A == Arch::Armv8 && FixedSpinlock) {
          Event Dmb;
          Dmb.Kind = EventKind::Fence;
          Dmb.Fence = FenceKind::Dmb;
          Emit(Dmb, kNoClass);
        }
        break;
      }
      case EventKind::Unlock: {
        if (A == Arch::Power) {
          Event Sync;
          Sync.Kind = EventKind::Fence;
          Sync.Fence = FenceKind::Sync;
          Emit(Sync, kNoClass);
        }
        Event Wm;
        Wm.Kind = EventKind::Write;
        Wm.Loc = LockVar;
        Wm.WrittenValue = 0; // free
        if (A == Arch::Armv8)
          Wm.Order = MemOrder::Release; // STLR
        MainOf[E] = Emit(Wm, kNoClass);
        break;
      }
      case EventKind::TxLock: {
        ElidedTxn = NextTxn++;
        Event Rm;
        Rm.Kind = EventKind::Read;
        Rm.Loc = LockVar;
        MainOf[E] = Emit(Rm, ElidedTxn);
        break;
      }
      case EventKind::TxUnlock:
        ElidedTxn = kNoClass;
        break;
      default: {
        // Ordinary memory events keep their structure. Events of an
        // elided CR join its transaction (TxnIntro); others keep theirs.
        int Txn = ElidedTxn != kNoClass ? ElidedTxn : Abstract.Txn[E];
        MainOf[E] = Emit(Ev, Txn);
        break;
      }
      }
    }
  }
  assert(Next == TargetCount && "expansion size mismatch");

  for (unsigned P = 0; P < TargetCount; ++P)
    for (unsigned Q = P + 1; Q < TargetCount; ++Q)
      if (Y.event(P).Thread == Y.event(Q).Thread)
        Y.Po.insert(P, Q);

  auto CopyRel = [&](const Relation &Src, Relation &Dst) {
    Src.forEachPair([&](EventId P, EventId Q) {
      if (MainOf[P] >= 0 && MainOf[Q] >= 0)
        Dst.insert(static_cast<EventId>(MainOf[P]),
                   static_cast<EventId>(MainOf[Q]));
    });
  };
  CopyRel(Abstract.Rf, Y.Rf);
  CopyRel(Abstract.Co, Y.Co);
  CopyRel(Abstract.Addr, Y.Addr);
  CopyRel(Abstract.Data, Y.Data);
  CopyRel(Abstract.Rmw, Y.Rmw);
  // ctrl must stay forward-closed through the mapping.
  Abstract.Ctrl.forEachPair([&](EventId P, EventId Q) {
    if (MainOf[P] < 0 || MainOf[Q] < 0)
      return;
    EventId Src = static_cast<EventId>(MainOf[P]);
    Y.Ctrl.insert(Src, static_cast<EventId>(MainOf[Q]));
    for (unsigned B = 0; B < TargetCount; ++B)
      if (Y.Po.contains(static_cast<EventId>(MainOf[Q]), B))
        Y.Ctrl.insert(Src, B);
  });

  // The spinlock's loop branches: control dependencies from the exclusive
  // read of the lock variable (branch on the loaded value) and — on Power,
  // per §8.3 footnote 3 — from the store-exclusive (branch on the
  // store-conditional's status) to everything po-later.
  for (unsigned E = 0; E < TargetCount; ++E) {
    bool ExclRead =
        Y.event(E).isRead() && Y.Rmw.domain().contains(E);
    bool ExclWrite = A == Arch::Power && Y.event(E).isWrite() &&
                     Y.Rmw.range().contains(E);
    if (Y.event(E).Loc != LockVar || (!ExclRead && !ExclWrite))
      continue;
    for (unsigned B = 0; B < TargetCount; ++B)
      if (Y.Po.contains(E, B))
        Y.Ctrl.insert(E, B);
  }

  return Y;
}

std::vector<Execution> tmw::lockVarCompletions(const Execution &Concrete) {
  std::vector<Execution> Out;
  LocId LockVar = static_cast<LocId>(Concrete.numLocations() - 1);

  std::vector<EventId> Reads, Writes, LockWrites, UnlockWrites;
  for (unsigned E = 0; E < Concrete.size(); ++E) {
    const Event &Ev = Concrete.event(E);
    if (Ev.Loc != LockVar)
      continue;
    if (Ev.isRead())
      Reads.push_back(E);
    if (Ev.isWrite()) {
      Writes.push_back(E);
      if (Ev.WrittenValue != 0)
        LockWrites.push_back(E);
      else
        UnlockWrites.push_back(E);
    }
  }

  Execution X = Concrete;
  std::function<void(unsigned)> ChooseCo = [&](unsigned) {
    std::vector<EventId> Perm = Writes;
    std::sort(Perm.begin(), Perm.end());
    if (Perm.size() <= 1) {
      if (X.checkWellFormed() == nullptr)
        Out.push_back(X);
      return;
    }
    do {
      for (unsigned I = 0; I < Perm.size(); ++I)
        for (unsigned J = 0; J < Perm.size(); ++J)
          if (I < J)
            X.Co.insert(Perm[I], Perm[J]);
          else if (I != J)
            X.Co.erase(Perm[I], Perm[J]);
      if (X.checkWellFormed() == nullptr)
        Out.push_back(X);
    } while (std::next_permutation(Perm.begin(), Perm.end()));
    for (EventId P : Writes)
      for (EventId Q : Writes)
        if (P != Q)
          X.Co.erase(P, Q);
  };

  std::function<void(unsigned)> ChooseRf = [&](unsigned Idx) {
    if (Idx == Reads.size()) {
      ChooseCo(0);
      return;
    }
    EventId R = Reads[Idx];
    // Every read of the lock variable must see the lock free: acquiring
    // reads succeed only on a free lock, and elided-region reads are
    // constrained by TxnReadsLockFree. Sources: initial value (no rf) or
    // an unlock write.
    ChooseRf(Idx + 1);
    for (EventId W : UnlockWrites) {
      X.Rf.insert(W, R);
      ChooseRf(Idx + 1);
      X.Rf.erase(W, R);
    }
  };

  ChooseRf(0);
  (void)LockWrites;
  return Out;
}

namespace {

/// Enumerate abstract lock-elision executions: two threads, each one
/// critical region over one shared location, with a choice of normal or
/// elided locking per thread (at least one elided).
struct AbstractSearch {
  unsigned MaxEvents;
  const std::function<bool(Execution &)> &Sink;
  bool Aborted = false;

  void run() {
    // Body sizes: total events = 4 lock calls + B0 + B1.
    for (unsigned B0 = 0; B0 + 4 <= MaxEvents && !Aborted; ++B0)
      for (unsigned B1 = 0; B0 + B1 + 4 <= MaxEvents && !Aborted; ++B1) {
        if (B0 + B1 == 0)
          continue;
        for (bool Elide0 : {false, true})
          for (bool Elide1 : {false, true}) {
            if (!Elide0 && !Elide1)
              continue;
            buildSkeleton(B0, B1, Elide0, Elide1);
            if (Aborted)
              return;
          }
      }
  }

  void buildSkeleton(unsigned B0, unsigned B1, bool Elide0, bool Elide1) {
    unsigned N = 4 + B0 + B1;
    Execution X(N);
    unsigned Next = 0;
    auto AddLockCall = [&](unsigned T, EventKind K, int Cr) {
      X.event(Next).Kind = K;
      X.event(Next).Thread = T;
      X.Cr[Next] = Cr;
      ++Next;
    };
    std::vector<EventId> Body;
    auto AddBody = [&](unsigned T, unsigned Count, int Cr) {
      for (unsigned I = 0; I < Count; ++I) {
        X.event(Next).Thread = T;
        X.Cr[Next] = Cr;
        Body.push_back(Next);
        ++Next;
      }
    };
    AddLockCall(0, Elide0 ? EventKind::TxLock : EventKind::Lock, 0);
    AddBody(0, B0, 0);
    AddLockCall(0, Elide0 ? EventKind::TxUnlock : EventKind::Unlock, 0);
    AddLockCall(1, Elide1 ? EventKind::TxLock : EventKind::Lock, 1);
    AddBody(1, B1, 1);
    AddLockCall(1, Elide1 ? EventKind::TxUnlock : EventKind::Unlock, 1);
    for (unsigned P = 0; P < N; ++P)
      for (unsigned Q = P + 1; Q < N; ++Q)
        if (X.event(P).Thread == X.event(Q).Thread)
          X.Po.insert(P, Q);

    chooseKinds(X, Body, 0);
  }

  /// Choose each body event's kind; check each assignment's shape once,
  /// then emit it under every rf/co choice.
  void chooseKinds(Execution &X, const std::vector<EventId> &Body,
                   unsigned Idx) {
    if (Aborted)
      return;
    if (Idx == Body.size()) {
      if (X.checkShape() == nullptr)
        Aborted = !forEachRfCo(X, [&] { return Sink(X); });
      return;
    }
    for (EventKind K : {EventKind::Read, EventKind::Write}) {
      X.event(Body[Idx]).Kind = K;
      X.event(Body[Idx]).Loc = 0;
      chooseKinds(X, Body, Idx + 1);
      if (Aborted)
        return;
    }
  }
};

} // namespace

ElisionResult tmw::checkLockElision(const MemoryModel &TmModel,
                                    const MemoryModel &SpecModel, Arch A,
                                    bool FixedSpinlock, unsigned MaxEvents,
                                    double BudgetSeconds) {
  ElisionResult Res;
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  std::function<bool(Execution &)> Sink = [&](Execution &X) -> bool {
    if (Elapsed() > BudgetSeconds)
      return false;
    ++Res.AbstractChecked;
    // Spec-forbidden: the architecture axioms hold (the behaviour is
    // plausible) but critical regions fail to serialise. One analysis
    // serves both predicates (they share com).
    ExecutionAnalysis AX(X);
    if (!SpecModel.consistent(AX) || holdsCrOrder(AX))
      return true;
    Execution Skeleton = elideLocks(X, A, FixedSpinlock);
    for (const Execution &Y : lockVarCompletions(Skeleton)) {
      ++Res.ConcreteChecked;
      if (TmModel.consistent(Y)) {
        Res.CounterexampleFound = true;
        Res.Abstract = X;
        Res.Concrete = Y;
        return false;
      }
    }
    return true;
  };

  AbstractSearch Search{MaxEvents, Sink};
  Search.run();
  Res.Complete = !Search.Aborted || Res.CounterexampleFound;
  Res.Seconds = Elapsed();
  return Res;
}
