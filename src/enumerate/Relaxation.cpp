//===- Relaxation.cpp - The ⊏ order between executions -------------------------==//

#include "enumerate/Relaxation.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace tmw;

namespace {

/// Renumber transaction classes densely (dropping emptied classes) and
/// remap the atomic-transaction mask accordingly.
void compactTxnClasses(Execution &X) {
  int Map[kMaxTxns];
  for (unsigned I = 0; I < kMaxTxns; ++I)
    Map[I] = -1;
  uint32_t NewMask = 0;
  int Next = 0;
  for (unsigned E = 0; E < X.size(); ++E) {
    int C = X.Txn[E];
    if (C == kNoClass)
      continue;
    if (Map[C] == -1) {
      Map[C] = Next++;
      if ((X.AtomicTxns >> C) & 1)
        NewMask |= uint32_t(1) << Map[C];
    }
    X.Txn[E] = Map[C];
  }
  X.AtomicTxns = NewMask;
}

} // namespace

Execution tmw::removeEvent(const Execution &X, EventId E) {
  Execution Y(X.size() - 1);
  // Old id -> new id.
  std::vector<int> Map(X.size(), -1);
  unsigned Next = 0;
  for (unsigned A = 0; A < X.size(); ++A)
    if (A != E)
      Map[A] = static_cast<int>(Next++);

  for (unsigned A = 0; A < X.size(); ++A) {
    if (A == E)
      continue;
    Y.event(Map[A]) = X.event(A);
    Y.Txn[Map[A]] = X.Txn[A];
    Y.Cr[Map[A]] = X.Cr[A];
  }
  Y.AtomicTxns = X.AtomicTxns;

  auto CopyRel = [&](const Relation &Src, Relation &Dst) {
    Src.forEachPair([&](EventId A, EventId B) {
      if (A != E && B != E)
        Dst.insert(Map[A], Map[B]);
    });
  };
  CopyRel(X.Po, Y.Po);
  CopyRel(X.Rf, Y.Rf);
  CopyRel(X.Co, Y.Co);
  CopyRel(X.Addr, Y.Addr);
  CopyRel(X.Data, Y.Data);
  CopyRel(X.Ctrl, Y.Ctrl);
  CopyRel(X.Rmw, Y.Rmw);
  compactTxnClasses(Y);
  return Y;
}

namespace {

/// Offer the downgrade alternatives of event \p E under architecture
/// \p A, in a fixed order. False as soon as \p Offer returns false.
template <typename OfferFn>
bool offerDowngrades(const Execution &X, EventId E, Arch A,
                     OfferFn &Offer) {
  const Event &Ev = X.event(E);
  auto WithOrder = [&](MemOrder MO) {
    Execution Y = X;
    Y.event(E).Order = MO;
    return Offer(Y);
  };
  auto WithFence = [&](FenceKind FK) {
    Execution Y = X;
    Y.event(E).Fence = FK;
    return Offer(Y);
  };

  // Event kinds are exclusive, so each event matches at most one arm.
  switch (A) {
  case Arch::SC:
  case Arch::TSC:
  case Arch::X86:
    return true;
  case Arch::Power:
    if (Ev.isFence() && Ev.Fence == FenceKind::Sync)
      return WithFence(FenceKind::LwSync);
    return true;
  case Arch::Armv8:
    if (Ev.isRead() && Ev.Order == MemOrder::Acquire)
      return WithOrder(MemOrder::NonAtomic);
    if (Ev.isWrite() && Ev.Order == MemOrder::Release)
      return WithOrder(MemOrder::NonAtomic);
    if (Ev.isFence() && Ev.Fence == FenceKind::Dmb)
      return WithFence(FenceKind::DmbLd) && WithFence(FenceKind::DmbSt);
    return true;
  case Arch::Cpp:
    // One step down the C++ consistency-mode lattice.
    switch (Ev.Order) {
    case MemOrder::SeqCst:
      if (Ev.isRead())
        return WithOrder(MemOrder::Acquire);
      if (Ev.isWrite())
        return WithOrder(MemOrder::Release);
      return WithOrder(MemOrder::AcqRel);
    case MemOrder::AcqRel:
      return WithOrder(MemOrder::Acquire) && WithOrder(MemOrder::Release);
    case MemOrder::Acquire:
    case MemOrder::Release:
      return WithOrder(MemOrder::Relaxed);
    case MemOrder::Relaxed: {
      // RMW halves must stay atomic.
      bool IsRmwHalf =
          X.Rmw.domain().contains(E) || X.Rmw.range().contains(E);
      if (!IsRmwHalf && Ev.isMemoryAccess())
        return WithOrder(MemOrder::NonAtomic);
      return true;
    }
    case MemOrder::NonAtomic:
      return true;
    }
    return true;
  }
  return true;
}

/// The one-step relaxation generator: hands every well-formed execution
/// one ⊏-step below \p X to \p Visit, in a fixed order, and stops as soon
/// as \p Visit returns false (the function then returns false too). A
/// child is built only when the visit reaches it.
template <typename VisitFn>
bool forEachRelaxation(const Execution &X, const Vocabulary &V,
                       VisitFn &&Visit) {
  auto Offer = [&Visit](const Execution &Y) {
    return Y.checkWellFormed() != nullptr || Visit(Y);
  };

  // (i) Remove an event.
  for (unsigned E = 0; E < X.size(); ++E)
    if (!Offer(removeEvent(X, E)))
      return false;

  // (ii) Remove a dependency edge. For ctrl (forward-closed), removing the
  // earliest edge of a read keeps the remaining targets a po-suffix.
  auto DropEachEdge = [&](Relation Execution::*Rel) {
    for (EventId A = 0; A < X.size(); ++A)
      for (EventId B : (X.*Rel).successors(A)) {
        Execution Y = X;
        (Y.*Rel).erase(A, B);
        if (!Offer(Y))
          return false;
      }
    return true;
  };
  if (!DropEachEdge(&Execution::Addr) || !DropEachEdge(&Execution::Data))
    return false;
  for (EventId R : X.Ctrl.domain()) {
    EventSet Targets = X.Ctrl.successors(R);
    // Earliest target: the one with no ctrl-target po-before it.
    for (EventId T : Targets) {
      if (!(X.Po.compose(Relation::identityOn(EventSet::singleton(T),
                                              X.size()))
                .domain() &
            Targets)
               .empty())
        continue;
      Execution Y = X;
      Y.Ctrl.erase(R, T);
      if (!Offer(Y))
        return false;
    }
  }
  if (!DropEachEdge(&Execution::Rmw))
    return false;

  // (iii) Downgrade an event.
  for (unsigned E = 0; E < X.size(); ++E)
    if (!offerDowngrades(X, E, V.A, Offer))
      return false;

  // (v) Shrink a transaction at either end.
  for (unsigned C = 0; C < X.numTxns(); ++C) {
    std::vector<EventId> Members;
    for (unsigned E = 0; E < X.size(); ++E)
      if (X.Txn[E] == static_cast<int>(C))
        Members.push_back(E);
    if (Members.empty())
      continue;
    std::sort(Members.begin(), Members.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    for (EventId Boundary : {Members.front(), Members.back()}) {
      Execution Y = X;
      Y.Txn[Boundary] = kNoClass;
      compactTxnClasses(Y);
      if (!Offer(Y))
        return false;
      if (Members.size() == 1)
        break; // front == back: one child only
    }
  }

  // (iii') Downgrade an atomic{} transaction to a relaxed one (C++ only).
  if (V.A == Arch::Cpp)
    for (unsigned C = 0; C < X.numTxns(); ++C)
      if ((X.AtomicTxns >> C) & 1) {
        Execution Y = X;
        Y.AtomicTxns &= ~(uint32_t(1) << C);
        if (!Offer(Y))
          return false;
      }
  return true;
}

} // namespace

std::vector<Execution> tmw::relaxOneStep(const Execution &X,
                                         const Vocabulary &V) {
  std::vector<Execution> Out;
  forEachRelaxation(X, V, [&Out](const Execution &Y) {
    Out.push_back(Y);
    return true;
  });
  return Out;
}

bool tmw::isMinimallyInconsistent(const ExecutionAnalysis &A,
                                  const MemoryModel &M, const Vocabulary &V) {
  if (M.consistent(A))
    return false;
  // Each relaxation child is checked through a per-thread analysis arena:
  // retargeting via reset() is a generation bump, where the implicit
  // `Execution -> ExecutionAnalysis` conversion would construct a fresh
  // ~25 KB cache block (and its term table) per child. The arena's target
  // dangles between calls (the children are locals); it is never read
  // before the next reset(). The first inconsistent child ends the
  // search before any later child is built.
  static thread_local std::optional<ExecutionAnalysis> Arena;
  return forEachRelaxation(A.execution(), V, [&M](const Execution &Y) {
    if (!Arena)
      Arena.emplace(Y);
    else
      Arena->reset(Y);
    return M.consistent(*Arena);
  });
}

namespace {

/// Serialise with explicit thread and location renamings applied.
std::vector<uint8_t> encodeWith(const Execution &X,
                                const std::vector<unsigned> &ThreadPerm,
                                const std::vector<unsigned> &LocPerm) {
  // New event order: threads in permuted order, po order within.
  unsigned N = X.size();
  std::vector<EventId> NewOrder;
  for (unsigned NT = 0; NT < ThreadPerm.size(); ++NT) {
    unsigned OldT = ThreadPerm[NT];
    std::vector<EventId> Es;
    for (unsigned E = 0; E < N; ++E)
      if (X.event(E).Thread == OldT)
        Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    NewOrder.insert(NewOrder.end(), Es.begin(), Es.end());
  }
  std::vector<int> NewIdOf(N, -1);
  for (unsigned I = 0; I < NewOrder.size(); ++I)
    NewIdOf[NewOrder[I]] = static_cast<int>(I);

  std::vector<uint8_t> Enc;
  Enc.push_back(static_cast<uint8_t>(N));
  // Transaction classes renumbered by first occurrence in the new order.
  std::vector<int> TxnMap(kMaxTxns, -1), CrMap(kMaxEvents, -1);
  int NextTxn = 0, NextCr = 0;
  for (EventId Old : NewOrder) {
    const Event &Ev = X.event(Old);
    Enc.push_back(static_cast<uint8_t>(Ev.Kind));
    Enc.push_back(static_cast<uint8_t>(
        Ev.Loc < 0 ? 255 : LocPerm[static_cast<unsigned>(Ev.Loc)]));
    Enc.push_back(static_cast<uint8_t>(Ev.Order));
    Enc.push_back(static_cast<uint8_t>(Ev.Fence));
    int T = X.Txn[Old];
    if (T != kNoClass && TxnMap[T] == -1)
      TxnMap[T] = NextTxn++;
    Enc.push_back(static_cast<uint8_t>(T == kNoClass ? 255 : TxnMap[T]));
    Enc.push_back(static_cast<uint8_t>(
        T != kNoClass && ((X.AtomicTxns >> T) & 1) ? 1 : 0));
    int C = X.Cr[Old];
    if (C != kNoClass && CrMap[C] == -1)
      CrMap[C] = NextCr++;
    Enc.push_back(static_cast<uint8_t>(C == kNoClass ? 255 : CrMap[C]));
  }
  // Thread boundaries.
  for (EventId Old : NewOrder)
    Enc.push_back(static_cast<uint8_t>(X.event(Old).Thread));

  for (const Relation *Rel :
       {&X.Po, &X.Rf, &X.Co, &X.Addr, &X.Data, &X.Ctrl, &X.Rmw})
    for (unsigned NewA = 0; NewA < N; ++NewA) {
      uint64_t Row = 0;
      EventId OldA = NewOrder[NewA];
      for (EventId OldB : Rel->successors(OldA))
        Row |= uint64_t(1) << NewIdOf[OldB];
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        Enc.push_back(static_cast<uint8_t>(Row >> (8 * Byte)));
    }
  return Enc;
}

} // namespace

std::vector<uint8_t> tmw::canonicalEncoding(const Execution &X) {
  unsigned NumThreads = X.numThreads();
  unsigned NumLocs = X.numLocations();

  // Candidate thread permutations: only permutations preserving
  // non-increasing size order can produce the canonical skeleton.
  std::vector<unsigned> ThreadIds(NumThreads);
  std::iota(ThreadIds.begin(), ThreadIds.end(), 0);
  std::vector<unsigned> Sizes(NumThreads, 0);
  for (unsigned E = 0; E < X.size(); ++E)
    ++Sizes[X.event(E).Thread];
  std::sort(ThreadIds.begin(), ThreadIds.end(),
            [&](unsigned A, unsigned B) {
              if (Sizes[A] != Sizes[B])
                return Sizes[A] > Sizes[B];
              return A < B;
            });

  std::vector<uint8_t> Best;
  std::vector<unsigned> ThreadPerm = ThreadIds;
  // Permute within equal-size groups only.
  std::sort(ThreadPerm.begin(), ThreadPerm.end());
  do {
    bool SizeOrdered = true;
    for (unsigned I = 1; I < ThreadPerm.size(); ++I)
      if (Sizes[ThreadPerm[I - 1]] < Sizes[ThreadPerm[I]])
        SizeOrdered = false;
    if (!SizeOrdered)
      continue;
    std::vector<unsigned> LocPerm(NumLocs);
    std::iota(LocPerm.begin(), LocPerm.end(), 0);
    std::vector<unsigned> Inverse(NumLocs);
    do {
      for (unsigned I = 0; I < NumLocs; ++I)
        Inverse[LocPerm[I]] = I;
      std::vector<uint8_t> Enc = encodeWith(X, ThreadPerm, Inverse);
      if (Best.empty() || Enc < Best)
        Best = Enc;
    } while (std::next_permutation(LocPerm.begin(), LocPerm.end()));
  } while (std::next_permutation(ThreadPerm.begin(), ThreadPerm.end()));

  return Best;
}

std::vector<uint8_t> tmw::concreteEncoding(const Execution &X) {
  std::vector<unsigned> ThreadPerm(X.numThreads());
  std::iota(ThreadPerm.begin(), ThreadPerm.end(), 0);
  std::vector<unsigned> LocPerm(X.numLocations());
  std::iota(LocPerm.begin(), LocPerm.end(), 0);
  return encodeWith(X, ThreadPerm, LocPerm);
}

uint64_t tmw::canonicalHash(const Execution &X) {
  std::vector<uint8_t> Enc = canonicalEncoding(X);
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Enc) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}
