//===- Enumerator.cpp - Exhaustive execution enumeration ----------------------==//

#include "enumerate/Enumerator.h"

#include <algorithm>
#include <array>

using namespace tmw;

Vocabulary Vocabulary::forArch(Arch A) {
  Vocabulary V;
  V.A = A;
  switch (A) {
  case Arch::SC:
  case Arch::TSC:
    V.Fences = {};
    V.Rmw = false;
    break;
  case Arch::X86:
    V.Fences = {FenceKind::MFence};
    break;
  case Arch::Power:
    V.Fences = {FenceKind::Sync, FenceKind::LwSync, FenceKind::ISync};
    V.Deps = true;
    break;
  case Arch::Armv8:
    V.Fences = {FenceKind::Dmb, FenceKind::DmbLd, FenceKind::DmbSt,
                FenceKind::Isb};
    V.ReadOrders = {MemOrder::NonAtomic, MemOrder::Acquire};
    V.WriteOrders = {MemOrder::NonAtomic, MemOrder::Release};
    V.Deps = true;
    break;
  case Arch::Cpp:
    V.Fences = {FenceKind::CppFence};
    V.FenceOrders = {MemOrder::Acquire, MemOrder::Release, MemOrder::AcqRel,
                     MemOrder::SeqCst};
    V.ReadOrders = {MemOrder::NonAtomic, MemOrder::Relaxed, MemOrder::Acquire,
                    MemOrder::SeqCst};
    V.WriteOrders = {MemOrder::NonAtomic, MemOrder::Relaxed,
                     MemOrder::Release, MemOrder::SeqCst};
    V.AtomicTxns = true;
    break;
  }
  return V;
}

namespace {

/// Enumerate the canonical skeletons (non-increasing partitions of \p Num
/// into at most \p MaxThreads parts) in DFS order — small parts first:
/// thread-rich skeletons (where most communication cycles live) are
/// visited early, front-loading test discovery, the explicit-search
/// counterpart of the paper's Fig. 7 observation. The single source of
/// truth for the skeleton stage: the base DFS and the prefix-task roots
/// (`forEachSkeleton`) both come from here, so the pool seeds exactly the
/// skeletons the sequential search visits. \p F returns false to stop.
template <typename F>
bool forEachSkeletonImpl(unsigned Num, unsigned MaxThreads, F &&Sink) {
  std::vector<unsigned> Sizes;
  std::function<bool(unsigned, unsigned)> Rec = [&](unsigned Remaining,
                                                    unsigned MaxPart) {
    if (Remaining == 0)
      return Sizes.size() > MaxThreads || Sink(Sizes);
    for (unsigned Part = 1; Part <= std::min(Remaining, MaxPart); ++Part) {
      Sizes.push_back(Part);
      bool Continue = Rec(Remaining - Part, Part);
      Sizes.pop_back();
      if (!Continue)
        return false;
    }
    return true;
  };
  return Rec(Num, Num);
}

/// One `forEachRfCo` walk: the reads in id order, the writes grouped by
/// location (id order within a location).
struct RfCoSearch {
  Execution &X;
  const std::function<bool()> &Leaf;
  std::array<EventId, kMaxEvents> Reads, Writes;
  unsigned NumReads = 0, NumWrites = 0;

  RfCoSearch(Execution &X, const std::function<bool()> &Leaf)
      : X(X), Leaf(Leaf) {
    assert(X.Rf.isEmpty() && X.Co.isEmpty() && "rf/co already chosen");
    for (unsigned E = 0; E < X.size(); ++E)
      if (X.event(E).isRead())
        Reads[NumReads++] = E;
      else if (X.event(E).isWrite())
        Writes[NumWrites++] = E;
    std::sort(Writes.begin(), Writes.begin() + NumWrites,
              [this](EventId A, EventId B) {
                return std::pair(loc(A), A) < std::pair(loc(B), B);
              });
  }

  LocId loc(EventId E) const { return X.event(E).Loc; }

  /// Choose the sources of reads I.. (the initial value first), then co.
  bool rf(unsigned I) {
    if (I == NumReads)
      return co(0);
    EventId R = Reads[I];
    if (!rf(I + 1))
      return false;
    for (unsigned W = 0; W < NumWrites; ++W) {
      if (loc(Writes[W]) != loc(R))
        continue;
      X.Rf.insert(Writes[W], R);
      bool Go = rf(I + 1);
      X.Rf.erase(Writes[W], R);
      if (!Go)
        return false;
    }
    return true;
  }

  /// Order the writes from Writes[From] on, one location at a time, each
  /// in every permutation.
  bool co(unsigned From) {
    if (From == NumWrites)
      return Leaf();
    unsigned To = From + 1;
    while (To < NumWrites && loc(Writes[To]) == loc(Writes[From]))
      ++To;
    unsigned N = To - From;
    if (N == 1)
      return co(To);
    std::array<EventId, kMaxEvents> Perm;
    std::copy_n(Writes.begin() + From, N, Perm.begin());
    bool Go = true;
    do {
      for (unsigned I = 0; I < N; ++I)
        for (unsigned J = 0; J < N; ++J)
          if (I < J)
            X.Co.insert(Perm[I], Perm[J]);
          else if (I != J)
            X.Co.erase(Perm[I], Perm[J]);
      Go = co(To);
    } while (Go && std::next_permutation(Perm.begin(), Perm.begin() + N));
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J)
        X.Co.erase(Perm[I], Perm[J]);
    return Go;
  }
};

/// Mutable state threaded through the base-enumeration DFS.
struct BaseSearch {
  const Vocabulary &V;
  unsigned Num;
  const std::function<bool(Execution &)> &Sink;
  Execution X;
  /// Thread of each event and position within the thread.
  std::vector<unsigned> ThreadOf, PosOf, ThreadSize;
  bool Aborted = false;

  BaseSearch(const Vocabulary &V, unsigned Num,
             const std::function<bool(Execution &)> &Sink)
      : V(V), Num(Num), Sink(Sink) {}

  void run();
  void runPrefixed(const BasePrefix &P);
  void materializeSkeleton(const std::vector<unsigned> &Sizes);
  /// Apply the labels of \p P over the materialized skeleton; returns the
  /// resulting first-use location count.
  unsigned applyLabels(const BasePrefix &P);
  /// Enumerate the admissible labels of event \p E given \p LocsUsed, in
  /// DFS try-order. \p Gen receives (label, new LocsUsed) and returns
  /// false to stop. The single source of truth for the labelling
  /// decisions: the DFS recursion and `expandPrefix` both call it, which
  /// is what makes prefix tasks partition the space exactly.
  template <typename G>
  void forEachLabelChoice(unsigned E, unsigned LocsUsed, G &&Gen) const;
  void chooseEvents(unsigned E, unsigned LocsUsed);
  bool locationFilterOk() const;
  void chooseRmw();
  void chooseRmwPairs(const std::vector<std::pair<EventId, EventId>> &Pairs,
                      unsigned From, EventSet Used);
  void chooseDeps();
  void chooseDepPair(const std::vector<std::pair<EventId, EventId>> &Pairs,
                     unsigned Idx, const std::vector<EventId> &Reads);
  void chooseCtrl(const std::vector<EventId> &Reads, unsigned Idx);
  /// Complete the shape with every rf/co choice and emit each base.
  void chooseRfCo();
};

void BaseSearch::run() {
  forEachSkeletonImpl(Num, V.MaxThreads,
                      [&](const std::vector<unsigned> &Sizes) {
    materializeSkeleton(Sizes);
    chooseEvents(0, 0);
    return !Aborted;
  });
}

void BaseSearch::materializeSkeleton(const std::vector<unsigned> &Sizes) {
  // Events thread-major, po = id order.
  X.clear(Num);
  ThreadOf.assign(Num, 0);
  PosOf.assign(Num, 0);
  ThreadSize = Sizes;
  unsigned E = 0;
  for (unsigned T = 0; T < Sizes.size(); ++T)
    for (unsigned P = 0; P < Sizes[T]; ++P, ++E) {
      ThreadOf[E] = T;
      PosOf[E] = P;
      X.event(E).Thread = T;
    }
  for (unsigned A = 0; A < Num; ++A)
    for (unsigned B = A + 1; B < Num; ++B)
      if (ThreadOf[A] == ThreadOf[B])
        X.Po.insert(A, B);
}

unsigned BaseSearch::applyLabels(const BasePrefix &P) {
  unsigned LocsUsed = 0;
  for (unsigned E = 0; E < P.Labels.size(); ++E) {
    X.event(E) = P.Labels[E];
    X.event(E).Thread = ThreadOf[E];
    if (X.event(E).isMemoryAccess())
      LocsUsed =
          std::max(LocsUsed, static_cast<unsigned>(X.event(E).Loc) + 1);
  }
  return LocsUsed;
}

void BaseSearch::runPrefixed(const BasePrefix &P) {
  materializeSkeleton(P.Sizes);
  chooseEvents(static_cast<unsigned>(P.Labels.size()), applyLabels(P));
}

template <typename G>
void BaseSearch::forEachLabelChoice(unsigned E, unsigned LocsUsed,
                                    G &&Gen) const {
  bool Interior = PosOf[E] > 0 && PosOf[E] + 1 < ThreadSize[ThreadOf[E]];

  // Reads and writes, over the available locations (first-use canonical:
  // an event may use any previously used location or the next fresh one).
  unsigned LocLimit = std::min(LocsUsed + 1, V.MaxLocations);
  for (unsigned L = 0; L < LocLimit; ++L) {
    unsigned NewUsed = std::max(LocsUsed, L + 1);
    for (MemOrder MO : V.ReadOrders) {
      Event Ev;
      Ev.Kind = EventKind::Read;
      Ev.Thread = ThreadOf[E];
      Ev.Loc = static_cast<LocId>(L);
      Ev.Order = MO;
      if (!Gen(Ev, NewUsed))
        return;
    }
    for (MemOrder MO : V.WriteOrders) {
      Event Ev;
      Ev.Kind = EventKind::Write;
      Ev.Thread = ThreadOf[E];
      Ev.Loc = static_cast<LocId>(L);
      Ev.Order = MO;
      if (!Gen(Ev, NewUsed))
        return;
    }
  }

  // Fences: only interior to a thread (a boundary fence orders nothing and
  // can never appear in a minimal test).
  if (Interior) {
    for (FenceKind FK : V.Fences) {
      if (FK == FenceKind::CppFence) {
        for (MemOrder MO : V.FenceOrders) {
          Event Ev;
          Ev.Kind = EventKind::Fence;
          Ev.Thread = ThreadOf[E];
          Ev.Fence = FK;
          Ev.Order = MO;
          if (!Gen(Ev, LocsUsed))
            return;
        }
      } else {
        Event Ev;
        Ev.Kind = EventKind::Fence;
        Ev.Thread = ThreadOf[E];
        Ev.Fence = FK;
        if (!Gen(Ev, LocsUsed))
          return;
      }
    }
  }
}

void BaseSearch::chooseEvents(unsigned E, unsigned LocsUsed) {
  if (Aborted)
    return;
  if (E == Num) {
    if (locationFilterOk())
      chooseRmw();
    return;
  }
  forEachLabelChoice(E, LocsUsed, [&](const Event &Ev, unsigned NewUsed) {
    X.event(E) = Ev;
    chooseEvents(E + 1, NewUsed);
    return !Aborted;
  });
  X.event(E) = Event();
  X.event(E).Thread = ThreadOf[E];
}

bool BaseSearch::locationFilterOk() const {
  unsigned NumLocs = X.numLocations();
  for (unsigned L = 0; L < NumLocs; ++L) {
    unsigned Accesses = 0, Writes = 0;
    for (unsigned E = 0; E < Num; ++E) {
      const Event &Ev = X.event(E);
      if (!Ev.isMemoryAccess() || Ev.Loc != static_cast<LocId>(L))
        continue;
      ++Accesses;
      Writes += Ev.isWrite();
    }
    if (Accesses < 2 || Writes < 1)
      return false;
  }
  return true;
}

void BaseSearch::chooseRmw() {
  if (!V.Rmw) {
    chooseDeps();
    return;
  }
  // Eligible pairs: po-adjacent read/write on the same location (for C++,
  // both halves atomic).
  std::vector<std::pair<EventId, EventId>> Pairs;
  for (unsigned R = 0; R < Num; ++R) {
    if (!X.event(R).isRead())
      continue;
    for (unsigned W = 0; W < Num; ++W) {
      if (!X.event(W).isWrite() || ThreadOf[R] != ThreadOf[W] ||
          PosOf[W] != PosOf[R] + 1 || X.event(R).Loc != X.event(W).Loc)
        continue;
      if (V.A == Arch::Cpp &&
          (!X.event(R).isAtomic() || !X.event(W).isAtomic()))
        continue;
      Pairs.push_back({R, W});
    }
  }
  chooseRmwPairs(Pairs, 0, EventSet());
}

void BaseSearch::chooseRmwPairs(
    const std::vector<std::pair<EventId, EventId>> &Pairs, unsigned From,
    EventSet Used) {
  if (Aborted)
    return;
  if (From == Pairs.size()) {
    chooseDeps();
    return;
  }
  // Skip this pair.
  chooseRmwPairs(Pairs, From + 1, Used);
  if (Aborted)
    return;
  auto [R, W] = Pairs[From];
  if (Used.contains(R) || Used.contains(W))
    return;
  X.Rmw.insert(R, W);
  EventSet NewUsed = Used;
  NewUsed.insert(R);
  NewUsed.insert(W);
  chooseRmwPairs(Pairs, From + 1, NewUsed);
  X.Rmw.erase(R, W);
}

void BaseSearch::chooseDeps() {
  std::vector<EventId> Reads;
  for (unsigned E = 0; E < Num; ++E)
    if (X.event(E).isRead())
      Reads.push_back(E);

  if (!V.Deps) {
    chooseRfCo();
    return;
  }
  // addr/data choices per (read, po-later event) pair. A minimal test never
  // needs two dependency kinds on the same pair (removing one would leave
  // the other), so a single choice per pair is complete for minimality.
  std::vector<std::pair<EventId, EventId>> Pairs;
  for (EventId R : Reads)
    for (unsigned E = 0; E < Num; ++E)
      if (X.Po.contains(R, E) && X.event(E).isMemoryAccess())
        Pairs.push_back({R, E});
  chooseDepPair(Pairs, 0, Reads);
}

void BaseSearch::chooseDepPair(
    const std::vector<std::pair<EventId, EventId>> &Pairs, unsigned Idx,
    const std::vector<EventId> &Reads) {
  if (Aborted)
    return;
  if (Idx == Pairs.size()) {
    chooseCtrl(Reads, 0);
    return;
  }
  auto [R, E] = Pairs[Idx];
  // No dependency on this pair.
  chooseDepPair(Pairs, Idx + 1, Reads);
  if (Aborted)
    return;
  // Address dependency (to any access).
  X.Addr.insert(R, E);
  chooseDepPair(Pairs, Idx + 1, Reads);
  X.Addr.erase(R, E);
  if (Aborted)
    return;
  // Data dependency (to writes only).
  if (X.event(E).isWrite()) {
    X.Data.insert(R, E);
    chooseDepPair(Pairs, Idx + 1, Reads);
    X.Data.erase(R, E);
  }
}

void BaseSearch::chooseCtrl(const std::vector<EventId> &Reads, unsigned Idx) {
  if (Aborted)
    return;
  if (Idx == Reads.size()) {
    chooseRfCo();
    return;
  }
  EventId R = Reads[Idx];
  // No control dependency from R.
  chooseCtrl(Reads, Idx + 1);
  if (Aborted)
    return;
  // Branch after R at suffix start S: ctrl edges to events at PosOf >= S.
  unsigned T = ThreadOf[R];
  for (unsigned S = PosOf[R] + 1; S < ThreadSize[T]; ++S) {
    for (unsigned E = 0; E < Num; ++E)
      if (ThreadOf[E] == T && PosOf[E] >= S)
        X.Ctrl.insert(R, E);
    chooseCtrl(Reads, Idx + 1);
    for (unsigned E = 0; E < Num; ++E)
      if (ThreadOf[E] == T && PosOf[E] >= S)
        X.Ctrl.erase(R, E);
    if (Aborted)
      return;
  }
}

void BaseSearch::chooseRfCo() {
  Aborted = !forEachRfCo(X, [this] {
    assert(X.checkWellFormed() == nullptr && "enumerated ill-formed base");
    return Sink(X);
  });
}

/// DFS over transaction placements: disjoint contiguous intervals per
/// thread.
struct TxnSearch {
  const Vocabulary &V;
  Execution &X;
  const std::function<bool(Execution &)> &Sink;
  std::vector<std::vector<EventId>> ThreadEvents;
  int NextClass = 0;
  bool Aborted = false;

  TxnSearch(const Vocabulary &V, Execution &X,
            const std::function<bool(Execution &)> &Sink)
      : V(V), X(X), Sink(Sink) {
    ThreadEvents.resize(X.numThreads());
    for (unsigned E = 0; E < X.size(); ++E)
      ThreadEvents[X.event(E).Thread].push_back(E);
    for (auto &Es : ThreadEvents)
      std::sort(Es.begin(), Es.end(), [&](EventId A, EventId B) {
        return X.Po.contains(A, B);
      });
  }

  /// True when an atomic{} transaction may cover [From, To) of thread T:
  /// atomic transactions cannot contain atomic operations (§7).
  bool atomicAllowed(unsigned T, unsigned From, unsigned To) const {
    for (unsigned P = From; P < To; ++P)
      if (X.event(ThreadEvents[T][P]).isAtomic())
        return false;
    return true;
  }

  void place(unsigned T, unsigned Pos) {
    if (Aborted)
      return;
    if (T == ThreadEvents.size()) {
      if (NextClass > 0) {
        assert(X.checkWellFormed() == nullptr && "bad txn placement");
        if (!Sink(X))
          Aborted = true;
      }
      return;
    }
    if (Pos >= ThreadEvents[T].size()) {
      place(T + 1, 0);
      return;
    }
    // No transaction starting here.
    place(T, Pos + 1);
    if (Aborted)
      return;
    // A transaction covering positions [Pos, End).
    for (unsigned End = Pos + 1; End <= ThreadEvents[T].size(); ++End) {
      int Class = NextClass++;
      for (unsigned P = Pos; P < End; ++P)
        X.Txn[ThreadEvents[T][P]] = Class;
      place(T, End);
      if (!Aborted && V.AtomicTxns && atomicAllowed(T, Pos, End)) {
        X.AtomicTxns |= uint32_t(1) << Class;
        place(T, End);
        X.AtomicTxns &= ~(uint32_t(1) << Class);
      }
      for (unsigned P = Pos; P < End; ++P)
        X.Txn[ThreadEvents[T][P]] = kNoClass;
      --NextClass;
      if (Aborted)
        return;
    }
  }
};

} // namespace

bool tmw::forEachRfCo(Execution &X, const std::function<bool()> &Leaf) {
  return RfCoSearch(X, Leaf).rf(0);
}

bool ExecutionEnumerator::forEachBase(
    const std::function<bool(Execution &)> &F) const {
  BaseSearch S(Vocab, Num, F);
  S.run();
  return !S.Aborted;
}

void ExecutionEnumerator::forEachSkeleton(
    const std::function<void(const std::vector<unsigned> &)> &F) const {
  forEachSkeletonImpl(Num, Vocab.MaxThreads,
                      [&](const std::vector<unsigned> &Sizes) {
    F(Sizes);
    return true;
  });
}

std::vector<BasePrefix>
ExecutionEnumerator::expandPrefix(const BasePrefix &P) const {
  std::vector<BasePrefix> Children;
  unsigned K = static_cast<unsigned>(P.Labels.size());
  if (K >= Num)
    return Children;
  std::function<bool(Execution &)> NoSink = [](Execution &) { return true; };
  BaseSearch S(Vocab, Num, NoSink);
  S.materializeSkeleton(P.Sizes);
  unsigned LocsUsed = S.applyLabels(P);
  S.forEachLabelChoice(K, LocsUsed, [&](const Event &Ev, unsigned) {
    BasePrefix C = P;
    C.Labels.push_back(Ev);
    Children.push_back(std::move(C));
    return true;
  });
  return Children;
}

double ExecutionEnumerator::estimateCost(const BasePrefix &P) const {
  unsigned FenceChoices = 0;
  for (FenceKind FK : Vocab.Fences)
    FenceChoices += FK == FenceKind::CppFence
                        ? static_cast<unsigned>(Vocab.FenceOrders.size())
                        : 1;
  unsigned AccessChoices =
      Vocab.MaxLocations * static_cast<unsigned>(Vocab.ReadOrders.size() +
                                                 Vocab.WriteOrders.size());
  double Cost = 1;
  unsigned E = 0;
  for (unsigned T = 0; T < P.Sizes.size(); ++T)
    for (unsigned Pos = 0; Pos < P.Sizes[T]; ++Pos, ++E) {
      if (E < P.Labels.size())
        continue; // already decided
      bool Interior = Pos > 0 && Pos + 1 < P.Sizes[T];
      Cost *= AccessChoices + (Interior ? FenceChoices : 0);
    }
  return Cost;
}

bool ExecutionEnumerator::forEachBasePrefixed(
    const BasePrefix &P, const std::function<bool(Execution &)> &F) const {
  assert(!P.Sizes.empty() && P.Labels.size() <= Num && "malformed prefix");
  BaseSearch S(Vocab, Num, F);
  S.runPrefixed(P);
  return !S.Aborted;
}

bool ExecutionEnumerator::forEachTxnPlacement(
    Execution &X, const std::function<bool(Execution &)> &F) const {
  TxnSearch S(Vocab, X, F);
  S.place(0, 0);
  return !S.Aborted;
}
