//===- Candidates.cpp - Candidate executions of a program ---------------------==//

#include "enumerate/Candidates.h"

#include "enumerate/Enumerator.h"

#include <algorithm>
#include <functional>

using namespace tmw;

namespace {

/// Instruction-to-event mapping state while assembling one transaction
/// success/failure choice.
struct Shape {
  /// The candidate handed to the sink: this shape's events, completed by
  /// each rf/co choice in place, with its outcome refilled per choice.
  Candidate C;
  /// Event id per (thread, instruction index), -1 when it vanished or is a
  /// transaction delimiter.
  std::vector<std::vector<int>> EventOf;
  /// True when every transaction of the program succeeded.
  bool AllTxnsSucceeded = true;
};

/// Build the event skeleton for one choice of which transactions succeed.
/// \p Succeed holds one flag per TxBegin, in program order.
bool buildShape(const Program &P, const std::vector<bool> &Succeed,
                Shape &S) {
  unsigned NumTx = 0;
  std::vector<Event> Events;
  std::vector<int> Txns, Crs;
  S.EventOf.assign(P.Threads.size(), {});
  S.AllTxnsSucceeded = true;

  int NextTxnClass = 0, NextCrClass = 0;
  uint32_t AtomicMask = 0;
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    int CurTxn = kNoClass;
    int CurCr = kNoClass;
    bool Skipping = false;
    for (const Instruction &I : P.Threads[T]) {
      int EventId = -1;
      switch (I.K) {
      case Instruction::Kind::TxBegin: {
        bool Ok = NumTx < Succeed.size() && Succeed[NumTx];
        if (!Ok)
          S.AllTxnsSucceeded = false;
        ++NumTx;
        if (Ok) {
          CurTxn = NextTxnClass++;
          if (I.TxnAtomic)
            AtomicMask |= uint32_t(1) << CurTxn;
        } else {
          Skipping = true;
        }
        break;
      }
      case Instruction::Kind::TxEnd:
        CurTxn = kNoClass;
        Skipping = false;
        break;
      case Instruction::Kind::Lock:
      case Instruction::Kind::TxLock: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Kind = I.K == Instruction::Kind::Lock ? EventKind::Lock
                                                 : EventKind::TxLock;
        Ev.Thread = T;
        CurCr = NextCrClass++;
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        break;
      }
      case Instruction::Kind::Unlock:
      case Instruction::Kind::TxUnlock: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Kind = I.K == Instruction::Kind::Unlock ? EventKind::Unlock
                                                   : EventKind::TxUnlock;
        Ev.Thread = T;
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        CurCr = kNoClass;
        break;
      }
      case Instruction::Kind::Load:
      case Instruction::Kind::Store:
      case Instruction::Kind::Fence: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Thread = T;
        Ev.Loc = I.Loc;
        Ev.Order = I.MO;
        if (I.K == Instruction::Kind::Load) {
          Ev.Kind = EventKind::Read;
        } else if (I.K == Instruction::Kind::Store) {
          Ev.Kind = EventKind::Write;
          Ev.WrittenValue = I.Value;
        } else {
          Ev.Kind = EventKind::Fence;
          Ev.Fence = I.FK;
          Ev.Loc = -1;
        }
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        break;
      }
      }
      S.EventOf[T].push_back(EventId);
    }
  }

  if (Events.size() > kMaxEvents)
    return false;

  Execution &X = S.C.X;
  X.clear(static_cast<unsigned>(Events.size()));
  for (unsigned E = 0; E < Events.size(); ++E) {
    X.event(E) = Events[E];
    X.Txn[E] = Txns[E];
    X.Cr[E] = Crs[E];
  }
  X.AtomicTxns = AtomicMask;

  // po: id order within each thread (events were appended in order).
  for (unsigned A = 0; A < Events.size(); ++A)
    for (unsigned B = A + 1; B < Events.size(); ++B)
      if (Events[A].Thread == Events[B].Thread)
        X.Po.insert(A, B);

  // Dependencies and rmw edges from the instruction structure.
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    for (unsigned Idx = 0; Idx < P.Threads[T].size(); ++Idx) {
      int Target = S.EventOf[T][Idx];
      if (Target < 0)
        continue;
      const Instruction &I = P.Threads[T][Idx];
      auto Resolve = [&](unsigned LoadIdx) -> int {
        return LoadIdx < S.EventOf[T].size() ? S.EventOf[T][LoadIdx] : -1;
      };
      for (unsigned D : I.AddrDeps)
        if (int Src = Resolve(D); Src >= 0)
          X.Addr.insert(Src, Target);
      for (unsigned D : I.DataDeps)
        if (int Src = Resolve(D); Src >= 0)
          X.Data.insert(Src, Target);
      for (unsigned D : I.CtrlDeps)
        if (int Src = Resolve(D); Src >= 0) {
          // Forward closure: a branch orders everything after it.
          X.Ctrl.insert(Src, Target);
          for (unsigned B = 0; B < Events.size(); ++B)
            if (X.Po.contains(Target, B))
              X.Ctrl.insert(Src, B);
        }
      if (I.RmwPartner >= 0 && I.K == Instruction::Kind::Load)
        if (int W = Resolve(static_cast<unsigned>(I.RmwPartner)); W >= 0)
          X.Rmw.insert(Target, W);
    }
  }
  return true;
}

/// Refill the outcome of the candidate in \p S from its current rf/co.
void fillOutcome(const Program &P, Shape &S) {
  const Execution &X = S.C.X;
  Outcome &O = S.C.O;

  O.RegValues.clear();
  for (unsigned T = 0; T < P.Threads.size(); ++T)
    for (unsigned Idx = 0; Idx < P.Threads[T].size(); ++Idx) {
      if (P.Threads[T][Idx].K != Instruction::Kind::Load)
        continue;
      int E = S.EventOf[T][Idx];
      if (E < 0)
        continue; // vanished with a failed transaction
      int V = P.initialValue(X.event(E).Loc);
      EventSet Srcs =
          X.Rf.restrictRange(EventSet::singleton(static_cast<EventId>(E)))
              .domain();
      for (EventId W : Srcs)
        V = X.event(W).WrittenValue;
      O.RegValues.push_back({T, Idx, V});
    }
  std::sort(O.RegValues.begin(), O.RegValues.end());

  O.MemValues.assign(P.LocNames.size(), 0);
  for (unsigned L = 0; L < P.LocNames.size(); ++L)
    O.MemValues[L] = P.initialValue(static_cast<LocId>(L));
  for (unsigned L = 0; L < P.LocNames.size(); ++L) {
    EventSet Ws = X.writes() & X.atLocation(static_cast<LocId>(L));
    for (EventId W : Ws)
      if ((X.Co.successors(W) & Ws).empty())
        O.MemValues[L] = X.event(W).WrittenValue;
  }
  // A failed transaction's abort handler zeroes `ok` (Fig. 2).
  if (!S.AllTxnsSucceeded) {
    LocId Ok = P.locByName("ok");
    if (Ok >= 0)
      O.MemValues[Ok] = 0;
  }
}

} // namespace

const char *
tmw::forEachCandidate(const Program &P,
                      const std::function<bool(const Candidate &)> &Sink) {
  unsigned NumTx = 0;
  for (const auto &T : P.Threads)
    for (const Instruction &I : T)
      if (I.K == Instruction::Kind::TxBegin)
        ++NumTx;

  Shape S;
  std::vector<bool> Succeed(NumTx);
  const char *Err = nullptr;
  bool Go = true;
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumTx); ++Mask) {
    for (unsigned I = 0; I < NumTx; ++I)
      Succeed[I] = (Mask >> I) & 1;
    if (!buildShape(P, Succeed, S))
      continue;
    // The rf/co choices are well-formed by construction: one check per
    // shape, made even after the sink stopped, so the answer does not
    // depend on where it stopped.
    if (const char *Why = S.C.X.checkShape()) {
      if (!Err)
        Err = Why;
      continue;
    }
    if (Go)
      Go = forEachRfCo(S.C.X, [&] {
        fillOutcome(P, S);
        return Sink(S.C);
      });
  }
  return Err;
}

std::vector<Candidate> tmw::enumerateCandidates(const Program &P) {
  std::vector<Candidate> Out;
  forEachCandidate(P, [&Out](const Candidate &C) {
    Out.push_back(C);
    return true;
  });
  return Out;
}

std::vector<Outcome> tmw::allowedOutcomes(const Program &P,
                                          const MemoryModel &M) {
  std::vector<Outcome> Out;
  forEachCandidate(P, [&](const Candidate &C) {
    if (M.consistent(C.X))
      Out.push_back(C.O);
    return true;
  });
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool tmw::postconditionReachable(const Program &P, const MemoryModel &M) {
  bool Reachable = false;
  forEachCandidate(P, [&](const Candidate &C) {
    if (C.O.satisfies(P) && M.consistent(C.X)) {
      Reachable = true;
      return false; // one witness suffices
    }
    return true;
  });
  return Reachable;
}
