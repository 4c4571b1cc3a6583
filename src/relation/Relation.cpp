//===- Relation.cpp - Binary relations over events ------------------------==//
///
/// \file
/// Implementation of the bit-matrix relational algebra. Each operation
/// with a layout-specific kernel tests `packed()` once; the word
/// operations loop over the live words and serve both layouts. The
/// packed paths of the hot kernels are inline in Relation.h; their rows
/// paths are the `*Rows` members here.
///
//===----------------------------------------------------------------------===//

#include "relation/Relation.h"

using namespace tmw;
using namespace tmw::packed;

namespace {

/// 0xFF in byte A for each A in \p Bits (events below 8), else 0.
uint64_t rowBytes(uint64_t Bits) {
  // Bit A of byte A, then +0x7F carries it (never past the byte) into
  // bit 7; shifted down to bit 0, times 0xFF fills the byte.
  uint64_t OnDiag = broadcast(Bits) & kDiag;
  uint64_t High = (OnDiag + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080;
  return (High >> 7) * 0xFF;
}

/// Every pair over \p N <= 8 events, packed.
uint64_t packedAll(unsigned N) {
  return rowBytes(EventSet::universe(N).bits()) &
         broadcast(EventSet::universe(N).bits());
}

} // namespace

Relation Relation::identityOn(EventSet S, unsigned N) {
  Relation R(N);
  if (R.packed()) {
    R.Rows[0] = broadcast((S & EventSet::universe(N)).bits()) & kDiag;
    return R;
  }
  for (EventId E : S)
    if (E < N)
      R.insert(E, E);
  return R;
}

Relation Relation::cross(EventSet A, EventSet B, unsigned N) {
  Relation R(N);
  uint64_t RangeBits = (B & EventSet::universe(N)).bits();
  if (R.packed()) {
    R.Rows[0] = rowBytes((A & EventSet::universe(N)).bits()) &
                broadcast(RangeBits);
    return R;
  }
  for (EventId E : A)
    if (E < N)
      R.Rows[E] = RangeBits;
  return R;
}

bool Relation::isEmptyRows() const {
  for (unsigned A = 0; A < Size; ++A)
    if (Rows[A] != 0)
      return false;
  return true;
}

bool Relation::isIrreflexive() const {
  if (packed())
    return (Rows[0] & kDiag) == 0;
  for (unsigned A = 0; A < Size; ++A)
    if ((Rows[A] >> A) & 1)
      return false;
  return true;
}

unsigned Relation::numPairs() const {
  unsigned N = 0;
  for (unsigned W = 0; W < liveWords(); ++W)
    N += __builtin_popcountll(Rows[W]);
  return N;
}

EventSet Relation::findCycle() const {
  Relation TC = transitiveClosure();
  for (EventId E = 0; E < Size; ++E) {
    if (!TC.contains(E, E))
      continue;
    if (contains(E, E))
      return EventSet::singleton(E);
    // Shortest cycle through E: BFS from E's successors back to E,
    // recording BFS parents to reconstruct the path.
    EventId Parent[kMaxEvents];
    EventId Queue[kMaxEvents];
    unsigned Head = 0, Tail = 0;
    EventSet Seen;
    for (EventId S : successors(E)) {
      Seen.insert(S);
      Parent[S] = E;
      Queue[Tail++] = S;
    }
    while (Head < Tail) {
      EventId U = Queue[Head++];
      if (contains(U, E)) {
        EventSet Cycle = EventSet::singleton(E);
        for (EventId V = U; V != E; V = Parent[V])
          Cycle.insert(V);
        return Cycle;
      }
      for (EventId S : successors(U))
        if (S != E && !Seen.contains(S)) {
          Seen.insert(S);
          Parent[S] = U;
          Queue[Tail++] = S;
        }
    }
    // TC(E, E) guarantees the BFS closes the cycle; not reached.
    assert(false && "transitive closure promised a cycle through E");
  }
  return {};
}

EventSet Relation::reflexivePoints() const {
  EventSet S;
  for (EventId A = 0; A < Size; ++A)
    if (contains(A, A))
      S.insert(A);
  return S;
}

bool Relation::operator==(const Relation &O) const {
  if (Size != O.Size)
    return false;
  for (unsigned W = 0; W < liveWords(); ++W)
    if (Rows[W] != O.Rows[W])
      return false;
  return true;
}

bool Relation::subsetOf(const Relation &O) const {
  assert(Size == O.Size && "size mismatch");
  for (unsigned W = 0; W < liveWords(); ++W)
    if (Rows[W] & ~O.Rows[W])
      return false;
  return true;
}

Relation &Relation::unionRows(const Relation &O) {
  for (unsigned A = 0; A < Size; ++A)
    Rows[A] |= O.Rows[A];
  return *this;
}

Relation &Relation::intersectRows(const Relation &O) {
  for (unsigned A = 0; A < Size; ++A)
    Rows[A] &= O.Rows[A];
  return *this;
}

Relation &Relation::subtractRows(const Relation &O) {
  for (unsigned A = 0; A < Size; ++A)
    Rows[A] &= ~O.Rows[A];
  return *this;
}

Relation Relation::composeRows(const Relation &O) const {
  Relation R(Size);
  for (unsigned A = 0; A < Size; ++A) {
    uint64_t Out = 0;
    for (EventId Mid : EventSet(Rows[A]))
      Out |= O.Rows[Mid];
    R.Rows[A] = Out;
  }
  return R;
}

Relation Relation::inverse() const {
  Relation R(Size);
  if (packed()) {
    // 8x8 bit transpose (Hacker's Delight, transpose8): swap the
    // off-diagonal halves of the 2x2, then 4x4, then 8x8 blocks.
    uint64_t W = Rows[0];
    uint64_t T = (W ^ (W >> 7)) & 0x00AA00AA00AA00AA;
    W ^= T ^ (T << 7);
    T = (W ^ (W >> 14)) & 0x0000CCCC0000CCCC;
    W ^= T ^ (T << 14);
    T = (W ^ (W >> 28)) & 0x00000000F0F0F0F0;
    W ^= T ^ (T << 28);
    R.Rows[0] = W;
    return R;
  }
  for (unsigned A = 0; A < Size; ++A)
    for (EventId B : EventSet(Rows[A]))
      R.Rows[B] |= uint64_t(1) << A;
  return R;
}

Relation Relation::complement() const {
  Relation R(Size);
  if (packed()) {
    R.Rows[0] = packedAll(Size) & ~Rows[0];
    return R;
  }
  uint64_t All = EventSet::universe(Size).bits();
  for (unsigned A = 0; A < Size; ++A)
    R.Rows[A] = All & ~Rows[A];
  return R;
}

Relation Relation::optionalRows() const {
  Relation R = *this;
  for (unsigned A = 0; A < Size; ++A)
    R.Rows[A] |= uint64_t(1) << A;
  return R;
}

Relation Relation::closureRows() const {
  Relation R = *this;
  // Column-sweep variant of Warshall's algorithm: when Mid is reachable
  // from A, everything reachable from Mid becomes reachable from A.
  for (unsigned Mid = 0; Mid < Size; ++Mid) {
    uint64_t MidRow = R.Rows[Mid];
    if (MidRow == 0)
      continue;
    for (unsigned A = 0; A < Size; ++A)
      if ((R.Rows[A] >> Mid) & 1)
        R.Rows[A] |= MidRow;
  }
  return R;
}

Relation Relation::reflexiveTransitiveClosure() const {
  return transitiveClosure().optional();
}

Relation Relation::restrictDomain(EventSet S) const {
  Relation R(Size);
  if (packed()) {
    R.Rows[0] = Rows[0] & rowBytes(S.bits());
    return R;
  }
  for (EventId A : S & EventSet::universe(Size))
    R.Rows[A] = Rows[A];
  return R;
}

Relation Relation::restrictRange(EventSet S) const {
  Relation R = *this;
  if (packed()) {
    R.Rows[0] &= broadcast(S.bits());
    return R;
  }
  uint64_t Mask = (S & EventSet::universe(Size)).bits();
  for (unsigned A = 0; A < Size; ++A)
    R.Rows[A] &= Mask;
  return R;
}

EventSet Relation::domain() const {
  EventSet S;
  for (EventId A = 0; A < Size; ++A)
    if (!successors(A).empty())
      S.insert(A);
  return S;
}

EventSet Relation::range() const {
  if (packed()) {
    uint64_t W = Rows[0];
    W |= W >> 32;
    W |= W >> 16;
    W |= W >> 8;
    return EventSet(W & 0xFF);
  }
  uint64_t Bits = 0;
  for (unsigned A = 0; A < Size; ++A)
    Bits |= Rows[A];
  return EventSet(Bits);
}

Relation tmw::weakLift(const Relation &R, const Relation &T) {
  return T.compose(R - T).compose(T);
}

Relation tmw::strongLift(const Relation &R, const Relation &T) {
  Relation TOpt = T.optional();
  return TOpt.compose(R - T).compose(TOpt);
}
