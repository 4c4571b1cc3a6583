//===- Relaxation.cpp - The ⊏ order between executions -------------------------==//

#include "enumerate/Relaxation.h"

#include <algorithm>
#include <array>
#include <cstring>
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

/// Bytes of the longest encoding: the event count, then per event seven
/// label bytes, one thread byte and one 8-byte row in each of the seven
/// stored relations.
constexpr unsigned kMaxEncoding = 1 + 64 * kMaxEvents;

/// The encoding of one execution under a thread renaming, written into a
/// fixed buffer. Events are laid out thread by thread in the renamed
/// thread order, po order within a thread; then come, per event, its kind,
/// location, order, fence, transaction class (renumbered by first
/// occurrence), atomic{} flag and critical region (likewise); then each
/// event's old thread id; then the rows of po, rf, co, addr, data, ctrl
/// and rmw over the new ids, eight bytes each, low byte first. Each
/// thread's po order is computed once, when the encoder is built.
///
/// Locations are kept (the concrete encoding) or renumbered by first
/// occurrence (the canonical one). Under one thread renaming only the
/// location bytes depend on the location renaming, and first-occurrence
/// numbering gives each of them the least value any renaming could: the
/// first location byte where another renaming differs names a location
/// not seen before, which that renaming must number above every location
/// seen before. So it is the least encoding over all location renamings,
/// and the canonical search enumerates thread renamings only.
class Encoder {
public:
  explicit Encoder(const Execution &X) : X(X), N(X.size()) {
    // The non-empty threads in ascending id order. Empty threads add no
    // event to any renaming, so they are left out of the permutations.
    for (unsigned E = 0; E < N; ++E) {
      unsigned T = X.event(E).Thread;
      unsigned I = 0;
      while (I < NumThreads && Tids[I] < T)
        ++I;
      if (I < NumThreads && Tids[I] == T)
        continue;
      for (unsigned J = NumThreads; J > I; --J)
        Tids[J] = Tids[J - 1];
      Tids[I] = T;
      ++NumThreads;
    }
    unsigned Next = 0;
    for (unsigned I = 0; I < NumThreads; ++I) {
      Begin[I] = Next;
      for (unsigned E = 0; E < N; ++E)
        if (X.event(E).Thread == Tids[I])
          ThreadEvents[Next++] = E;
      Sizes[I] = Next - Begin[I];
      std::sort(ThreadEvents.begin() + Begin[I], ThreadEvents.begin() + Next,
                [&X](EventId A, EventId B) { return X.Po.contains(A, B); });
    }
  }

  unsigned size() const { return 1 + 64 * N; }
  /// Non-empty threads; renamings permute `0 .. numThreads()-1`.
  unsigned numThreads() const { return NumThreads; }
  /// Events of the I-th non-empty thread.
  unsigned threadSize(unsigned I) const { return Sizes[I]; }
  /// The encoding written by the last `encode`, `size()` bytes.
  const uint8_t *bytes() const { return Buf.data(); }

  /// Encode with the threads in the order \p Perm (`numThreads()` indices
  /// of non-empty threads), renumbering locations by first occurrence
  /// when \p RenumberLocations.
  void encode(const unsigned *Perm, bool RenumberLocations) {
    std::array<EventId, kMaxEvents> NewOrder{};
    unsigned Next = 0;
    for (unsigned I = 0; I < NumThreads; ++I)
      for (unsigned K = 0; K < Sizes[Perm[I]]; ++K)
        NewOrder[Next++] = ThreadEvents[Begin[Perm[I]] + K];
    std::array<unsigned, kMaxEvents> NewIdOf{};
    for (unsigned I = 0; I < N; ++I)
      NewIdOf[NewOrder[I]] = I;

    uint8_t *Out = Buf.data();
    *Out++ = static_cast<uint8_t>(N);
    std::array<int, kMaxTxns> TxnMap;
    std::array<int, kMaxEvents> CrMap;
    TxnMap.fill(-1);
    CrMap.fill(-1);
    int NextTxn = 0, NextCr = 0;
    // Locations in first-occurrence order: the old id of new id I.
    std::array<int, kMaxEvents> SeenLocs{};
    unsigned NumSeen = 0;
    for (unsigned I = 0; I < N; ++I) {
      EventId Old = NewOrder[I];
      const Event &Ev = X.event(Old);
      *Out++ = static_cast<uint8_t>(Ev.Kind);
      unsigned Loc = static_cast<unsigned>(Ev.Loc);
      if (Ev.Loc >= 0 && RenumberLocations) {
        unsigned L = 0;
        while (L < NumSeen && SeenLocs[L] != Ev.Loc)
          ++L;
        if (L == NumSeen)
          SeenLocs[NumSeen++] = Ev.Loc;
        Loc = L;
      }
      *Out++ = static_cast<uint8_t>(Ev.Loc < 0 ? 255 : Loc);
      *Out++ = static_cast<uint8_t>(Ev.Order);
      *Out++ = static_cast<uint8_t>(Ev.Fence);
      int T = X.Txn[Old];
      if (T != kNoClass && TxnMap[T] == -1)
        TxnMap[T] = NextTxn++;
      *Out++ = static_cast<uint8_t>(T == kNoClass ? 255 : TxnMap[T]);
      *Out++ = static_cast<uint8_t>(
          T != kNoClass && ((X.AtomicTxns >> T) & 1) ? 1 : 0);
      int C = X.Cr[Old];
      if (C != kNoClass && CrMap[C] == -1)
        CrMap[C] = NextCr++;
      *Out++ = static_cast<uint8_t>(C == kNoClass ? 255 : CrMap[C]);
    }
    for (unsigned I = 0; I < N; ++I)
      *Out++ = static_cast<uint8_t>(X.event(NewOrder[I]).Thread);
    for (const Relation *Rel :
         {&X.Po, &X.Rf, &X.Co, &X.Addr, &X.Data, &X.Ctrl, &X.Rmw})
      for (unsigned I = 0; I < N; ++I) {
        uint64_t Row = 0;
        for (EventId OldB : Rel->successors(NewOrder[I]))
          Row |= uint64_t(1) << NewIdOf[OldB];
        for (unsigned Byte = 0; Byte < 8; ++Byte)
          *Out++ = static_cast<uint8_t>(Row >> (8 * Byte));
      }
  }

private:
  const Execution &X;
  unsigned N;
  unsigned NumThreads = 0;
  std::array<unsigned, kMaxEvents> Tids{}, Sizes{}, Begin{};
  /// Each thread's events in po order, thread by thread.
  std::array<EventId, kMaxEvents> ThreadEvents{};
  /// Only the first `size()` bytes are used, and `encode` writes each of
  /// them before `bytes()` can read it.
  std::array<uint8_t, kMaxEncoding> Buf;
};

/// Write the least encoding of \p X over all thread renamings (within
/// equal-size threads) and location renamings into \p Best; returns its
/// length. Every renaming of one execution has the same length, so the
/// byte-wise least is the lexicographically least.
unsigned leastEncoding(const Execution &X, uint8_t *Best) {
  Encoder Enc(X);
  unsigned Size = Enc.size();
  unsigned NumThreads = Enc.numThreads();
  std::array<unsigned, kMaxEvents> Perm{};
  std::iota(Perm.begin(), Perm.begin() + NumThreads, 0u);
  bool HaveBest = false;
  do {
    // Only permutations preserving non-increasing size order can produce
    // the canonical skeleton.
    bool SizeOrdered = true;
    for (unsigned I = 1; I < NumThreads; ++I)
      if (Enc.threadSize(Perm[I - 1]) < Enc.threadSize(Perm[I]))
        SizeOrdered = false;
    if (!SizeOrdered)
      continue;
    Enc.encode(Perm.data(), /*RenumberLocations=*/true);
    if (!HaveBest || std::memcmp(Enc.bytes(), Best, Size) < 0) {
      std::memcpy(Best, Enc.bytes(), Size);
      HaveBest = true;
    }
  } while (std::next_permutation(Perm.begin(), Perm.begin() + NumThreads));
  return Size;
}

} // namespace

std::vector<uint8_t> tmw::canonicalEncoding(const Execution &X) {
  std::array<uint8_t, kMaxEncoding> Best; // the first Size bytes written
  unsigned Size = leastEncoding(X, Best.data());
  return std::vector<uint8_t>(Best.begin(), Best.begin() + Size);
}

std::vector<uint8_t> tmw::concreteEncoding(const Execution &X) {
  Encoder Enc(X);
  std::array<unsigned, kMaxEvents> Identity{};
  std::iota(Identity.begin(), Identity.begin() + Enc.numThreads(), 0u);
  Enc.encode(Identity.data(), /*RenumberLocations=*/false);
  return std::vector<uint8_t>(Enc.bytes(), Enc.bytes() + Enc.size());
}

uint64_t tmw::canonicalHash(const Execution &X) {
  std::array<uint8_t, kMaxEncoding> Best; // the first Size bytes written
  unsigned Size = leastEncoding(X, Best.data());
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned I = 0; I < Size; ++I) {
    H ^= Best[I];
    H *= 0x100000001b3ull;
  }
  return H;
}
