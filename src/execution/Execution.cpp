//===- Execution.cpp - Candidate execution graphs ---------------------------==//

#include "execution/Execution.h"

#include <cstdio>

using namespace tmw;

void Execution::clear(unsigned NumEvents) {
  assert(NumEvents <= kMaxEvents && "execution too large");
  Num = NumEvents;
  Events.fill(Event());
  Po = Relation(Num);
  Rf = Relation(Num);
  Co = Relation(Num);
  Addr = Relation(Num);
  Data = Relation(Num);
  Ctrl = Relation(Num);
  Rmw = Relation(Num);
  Txn.fill(kNoClass);
  Cr.fill(kNoClass);
  AtomicTxns = 0;
}

unsigned Execution::numThreads() const {
  unsigned N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Events[E].Thread + 1);
  return Num == 0 ? 0 : N;
}

unsigned Execution::numLocations() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Events[E].Loc + 1);
  return static_cast<unsigned>(N);
}

unsigned Execution::numTxns() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Txn[E] + 1);
  return static_cast<unsigned>(N);
}

unsigned Execution::numCrs() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Cr[E] + 1);
  return static_cast<unsigned>(N);
}

EventSet Execution::reads() const { return ofKind(EventKind::Read); }
EventSet Execution::writes() const { return ofKind(EventKind::Write); }
EventSet Execution::fences() const { return ofKind(EventKind::Fence); }

EventSet Execution::accesses() const { return reads() | writes(); }

EventSet Execution::fences(FenceKind K) const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isFence() && Events[E].Fence == K)
      S.insert(E);
  return S;
}

EventSet Execution::atomics() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isAtomic())
      S.insert(E);
  return S;
}

EventSet Execution::acquires() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isAcquire())
      S.insert(E);
  return S;
}

EventSet Execution::releases() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isRelease())
      S.insert(E);
  return S;
}

EventSet Execution::seqCst() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isSeqCst())
      S.insert(E);
  return S;
}

EventSet Execution::ofKind(EventKind K) const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].Kind == K)
      S.insert(E);
  return S;
}

EventSet Execution::transactional() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Txn[E] != kNoClass)
      S.insert(E);
  return S;
}

EventSet Execution::atomicTransactional() const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Txn[E] != kNoClass && (AtomicTxns >> Txn[E]) & 1)
      S.insert(E);
  return S;
}

EventSet Execution::atLocation(LocId L) const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].isMemoryAccess() && Events[E].Loc == L)
      S.insert(E);
  return S;
}

EventSet Execution::ofThread(unsigned T) const {
  EventSet S;
  for (unsigned E = 0; E < Num; ++E)
    if (Events[E].Thread == T)
      S.insert(E);
  return S;
}

Relation Execution::sloc() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (!Events[A].isMemoryAccess())
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Events[B].isMemoryAccess() && Events[A].Loc == Events[B].Loc)
        R.insert(A, B);
  }
  return R;
}

Relation Execution::sameThread() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A)
    for (unsigned B = 0; B < Num; ++B)
      if (Events[A].Thread == Events[B].Thread)
        R.insert(A, B);
  return R;
}

Relation Execution::poLoc() const { return Po & sloc(); }

Relation Execution::poImm() const { return Po - Po.compose(Po); }

Relation Execution::fr() const {
  // fr = ([R] ; sloc ; [W]) \ (rf^-1 ; (co^-1)^*)  (§2.1). A read with no
  // rf source reads the initial value and is fr-before every write to its
  // location.
  Relation ReadsToWrites =
      sloc().restrictDomain(reads()).restrictRange(writes());
  Relation NotAfter =
      Rf.inverse().compose(Co.inverse().reflexiveTransitiveClosure());
  return ReadsToWrites - NotAfter;
}

Relation Execution::com() const { return Rf | Co | fr(); }

Relation Execution::ecom() const { return com() | Co.compose(Rf); }

Relation Execution::external(const Relation &R) const {
  return R - sameThread();
}

Relation Execution::internal(const Relation &R) const {
  return R & sameThread();
}

Relation Execution::fenceRel(FenceKind K) const {
  Relation Id = Relation::identityOn(fences(K), Num);
  return Po.compose(Id).compose(Po);
}

Relation Execution::stxn() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (Txn[A] == kNoClass)
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Txn[B] == Txn[A])
        R.insert(A, B);
  }
  return R;
}

Relation Execution::stxnAtomic() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (Txn[A] == kNoClass || !((AtomicTxns >> Txn[A]) & 1))
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Txn[B] == Txn[A])
        R.insert(A, B);
  }
  return R;
}

Relation Execution::tfence() const {
  Relation S = stxn();
  Relation NotS = S.complement();
  return Po & (NotS.compose(S) | S.compose(NotS));
}

Relation Execution::scr() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (Cr[A] == kNoClass)
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Cr[B] == Cr[A])
        R.insert(A, B);
  }
  return R;
}

bool Execution::crTransactional(int C) const {
  for (unsigned E = 0; E < Num; ++E)
    if (Cr[E] == C && Events[E].Kind == EventKind::TxLock)
      return true;
  return false;
}

Relation Execution::scrt() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (Cr[A] == kNoClass || !crTransactional(Cr[A]))
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Cr[B] == Cr[A])
        R.insert(A, B);
  }
  return R;
}

const char *Execution::checkShape() const {
  return checkShape(reads(), writes(), sloc());
}

const char *Execution::checkShape(EventSet R, EventSet W,
                                  const Relation &Sloc) const {
  EventSet Acc = R | W;

  // Location discipline: accesses name a location, other events do not.
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    if (Ev.isMemoryAccess() && Ev.Loc < 0)
      return "memory access without a location";
    if (!Ev.isMemoryAccess() && Ev.Loc >= 0)
      return "non-access names a location";
    if (Ev.isFence() != (Ev.Fence != FenceKind::None))
      return "fence flavour on non-fence event";
  }

  // po: strict, transitive, total per thread, intra-thread only.
  if (!Po.isIrreflexive())
    return "po is not irreflexive";
  if (!Po.compose(Po).subsetOf(Po))
    return "po is not transitive";
  for (unsigned A = 0; A < Num; ++A)
    for (unsigned B = 0; B < Num; ++B) {
      bool SameThread = Events[A].Thread == Events[B].Thread;
      if (Po.contains(A, B) && !SameThread)
        return "po crosses threads";
      if (A != B && SameThread && !Po.contains(A, B) && !Po.contains(B, A))
        return "po is not total within a thread";
    }

  // Dependencies: within po, originating at reads.
  Relation FromReads = Relation::cross(R, universe(), Num);
  if (!Addr.subsetOf(Po & FromReads))
    return "addr escapes po or starts at a non-read";
  if (!Addr.range().bits() || true) {
    // addr targets must be memory accesses.
    if (!(Addr.range() - Acc).empty())
      return "addr targets a non-access";
  }
  if (!Data.subsetOf(Po & FromReads))
    return "data escapes po or starts at a non-read";
  if (!(Data.range() - W).empty())
    return "data targets a non-write";
  // ctrl may also originate at a store-exclusive (the branch on the
  // store-conditional's status register; §8.3 footnote 3).
  Relation FromCtrlSources =
      Relation::cross(R | Rmw.range(), universe(), Num);
  if (!Ctrl.subsetOf(Po & FromCtrlSources))
    return "ctrl escapes po or starts at a non-read";
  if (!Ctrl.compose(Po).subsetOf(Ctrl))
    return "ctrl is not forward-closed";

  // rmw: read to write, same location, in po, functional both ways.
  if (!Rmw.subsetOf(Po & Sloc & Relation::cross(R, W, Num)))
    return "rmw is not R->W in po on a shared location";
  for (EventId A : Rmw.domain())
    if (Rmw.successors(A).size() > 1)
      return "rmw read paired with two writes";
  for (EventId B : Rmw.range())
    if (Rmw.inverse().successors(B).size() > 1)
      return "rmw write paired with two reads";

  // Transactions: intra-thread, po-contiguous, valid class ids.
  for (unsigned A = 0; A < Num; ++A) {
    if (Txn[A] == kNoClass)
      continue;
    if (Txn[A] < 0 || static_cast<unsigned>(Txn[A]) >= kMaxTxns)
      return "transaction class id out of range";
    for (unsigned B = 0; B < Num; ++B) {
      if (Txn[B] != Txn[A])
        continue;
      if (Events[A].Thread != Events[B].Thread)
        return "transaction spans threads";
      // Contiguity: everything po-between two class members is a member.
      for (unsigned C = 0; C < Num; ++C)
        if (Po.contains(A, C) && Po.contains(C, B) && Txn[C] != Txn[A])
          return "transaction is not contiguous in po";
    }
  }
  for (unsigned T = numTxns(); T < kMaxTxns; ++T)
    if ((AtomicTxns >> T) & 1)
      return "atomic flag on a non-existent transaction";

  // Critical regions: contiguous, opened by (Tx)Lock, closed by (Tx)Unlock.
  for (unsigned A = 0; A < Num; ++A) {
    if (Cr[A] == kNoClass) {
      if (Events[A].isLockCall())
        return "lock call outside any critical region";
      continue;
    }
    for (unsigned B = 0; B < Num; ++B) {
      if (Cr[B] != Cr[A])
        continue;
      if (Events[A].Thread != Events[B].Thread)
        return "critical region spans threads";
      for (unsigned C = 0; C < Num; ++C)
        if (Po.contains(A, C) && Po.contains(C, B) && Cr[C] != Cr[A])
          return "critical region is not contiguous in po";
    }
  }
  for (unsigned C = 0; C < numCrs(); ++C) {
    EventSet Members;
    for (unsigned E = 0; E < Num; ++E)
      if (Cr[E] == static_cast<int>(C))
        Members.insert(E);
    if (Members.empty())
      continue;
    // First member must be a lock, last an unlock, of matching flavour.
    EventId First = 0, Last = 0;
    bool Init = false;
    for (EventId E : Members) {
      if (!Init) {
        First = Last = E;
        Init = true;
        continue;
      }
      if (Po.contains(E, First))
        First = E;
      if (Po.contains(Last, E))
        Last = E;
    }
    EventKind FK = Events[First].Kind, LK = Events[Last].Kind;
    bool NormalCr = FK == EventKind::Lock && LK == EventKind::Unlock;
    bool ElidedCr = FK == EventKind::TxLock && LK == EventKind::TxUnlock;
    if (!NormalCr && !ElidedCr)
      return "critical region not delimited by matching lock/unlock";
    for (EventId E : Members)
      if (E != First && E != Last && Events[E].isLockCall())
        return "nested lock call inside a critical region";
  }

  return nullptr;
}

const char *Execution::checkWellFormed() const {
  EventSet R = reads(), W = writes();
  Relation Sloc = sloc();
  if (const char *Err = checkShape(R, W, Sloc))
    return Err;

  // rf: writes to reads of the same location, at most one source per read.
  if (!Rf.subsetOf(Relation::cross(W, R, Num) & Sloc))
    return "rf is not W->R on a shared location";
  for (EventId B : R)
    if (Rf.restrictRange(EventSet::singleton(B)).numPairs() > 1)
      return "read with two rf sources";

  // co: strict total order over the writes of each location.
  if (!Co.subsetOf(Relation::cross(W, W, Num) & Sloc))
    return "co is not W->W on a shared location";
  if (!Co.isIrreflexive())
    return "co is not irreflexive";
  if (!Co.compose(Co).subsetOf(Co))
    return "co is not transitive";
  for (EventId A : W)
    for (EventId B : W)
      if (A != B && Events[A].Loc == Events[B].Loc && !Co.contains(A, B) &&
          !Co.contains(B, A))
        return "co is not total over a location";
  return nullptr;
}

uint64_t Execution::hash() const {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  };
  Mix(Num);
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    Mix(static_cast<uint64_t>(Ev.Kind) | (uint64_t(Ev.Thread) << 8) |
        (uint64_t(Ev.Loc + 1) << 24) | (uint64_t(Ev.Order) << 40) |
        (uint64_t(Ev.Fence) << 48));
    Mix(static_cast<uint64_t>(Txn[E] + 1));
    Mix(static_cast<uint64_t>(Cr[E] + 1));
  }
  for (const Relation *Rel : {&Po, &Rf, &Co, &Addr, &Data, &Ctrl, &Rmw})
    for (unsigned A = 0; A < Num; ++A)
      Mix(Rel->successors(A).bits());
  Mix(AtomicTxns);
  return H;
}

bool Execution::operator==(const Execution &O) const {
  if (Num != O.Num || AtomicTxns != O.AtomicTxns)
    return false;
  for (unsigned E = 0; E < Num; ++E) {
    const Event &A = Events[E], &B = O.Events[E];
    if (A.Kind != B.Kind || A.Thread != B.Thread || A.Loc != B.Loc ||
        A.Order != B.Order || A.Fence != B.Fence || Txn[E] != O.Txn[E] ||
        Cr[E] != O.Cr[E])
      return false;
  }
  return Po == O.Po && Rf == O.Rf && Co == O.Co && Addr == O.Addr &&
         Data == O.Data && Ctrl == O.Ctrl && Rmw == O.Rmw;
}

std::string Execution::dump() const {
  std::string Out;
  char Buf[128];
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    const char *Kind = eventKindName(Ev.Kind);
    snprintf(Buf, sizeof(Buf), "%c: %s", 'a' + E, Kind);
    Out += Buf;
    if (Ev.isFence()) {
      Out += ":";
      Out += fenceKindName(Ev.Fence);
    }
    if (Ev.Loc >= 0) {
      snprintf(Buf, sizeof(Buf), " %c", 'x' + Ev.Loc);
      Out += Buf;
    }
    if (Ev.Order != MemOrder::NonAtomic) {
      Out += " ";
      Out += memOrderName(Ev.Order);
    }
    snprintf(Buf, sizeof(Buf), " (T%u)", Ev.Thread);
    Out += Buf;
    if (Txn[E] != kNoClass) {
      snprintf(Buf, sizeof(Buf), " [txn %d%s]", Txn[E],
               ((AtomicTxns >> Txn[E]) & 1) ? " atomic" : "");
      Out += Buf;
    }
    if (Cr[E] != kNoClass) {
      snprintf(Buf, sizeof(Buf), " [cr %d]", Cr[E]);
      Out += Buf;
    }
    Out += "\n";
  }
  struct {
    const char *Name;
    const Relation *Rel;
  } Rels[] = {{"po", &Po},     {"rf", &Rf},   {"co", &Co},  {"addr", &Addr},
              {"data", &Data}, {"ctrl", &Ctrl}, {"rmw", &Rmw}};
  for (const auto &[Name, Rel] : Rels) {
    if (Rel->isEmpty())
      continue;
    Out += Name;
    Out += ":";
    Rel->forEachPair([&](EventId A, EventId B) {
      snprintf(Buf, sizeof(Buf), " %c->%c", 'a' + A, 'a' + B);
      Out += Buf;
    });
    Out += "\n";
  }
  return Out;
}
