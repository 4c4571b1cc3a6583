//===- Relation.h - Binary relations over events ----------------*- C++ -*-==//
///
/// \file
/// Binary relations over the events of one execution, with the relational
/// algebra used by axiomatic memory models (Alglave et al., "Herding cats",
/// TOPLAS 2014): union, intersection, difference, composition `;`, inverse,
/// reflexive/transitive closures, domain/range, and the acyclicity and
/// emptiness tests that the axioms are phrased in.
///
/// A relation is a bit matrix: row `A` holds the successor set of event `A`.
/// With executions capped at 64 events, composition is O(N^2) word
/// operations and transitive closure is a tight Floyd–Warshall-style loop,
/// which keeps the exhaustive enumerator (millions of consistency checks)
/// fast.
///
/// Two row layouts, chosen from `size()` alone:
/// - *Packed* (at most 8 events, the size of the synthesis search's
///   executions and of litmus-test candidates): the whole matrix is one
///   word, row `A` in byte `A`. Union is one instruction; composition and
///   closure are a few shifts and masks per column; inverse is an 8x8 bit
///   transpose.
/// - *Rows* (9 to 64 events): one word per row, row `A` in word `A`.
///
/// Storage contract: every relation owns `kMaxEvents` words, but only its
/// live words — the first one when packed, `[0, size())` otherwise — are
/// ever written or read. Construction, copies and every operation touch
/// those words alone, so the work scales with the events an execution
/// really has (a handful in the synthesis search), not with the cap.
///
/// The packed paths of the hot kernels — `|`, `&`, `-` and their compound
/// forms, `isEmpty`, `compose`, `transitiveClosure`, `isAcyclic` and
/// `optional` — are inline below, so a consistency check over a small
/// execution runs as straight-line word arithmetic in its caller; their
/// rows paths, and every other kernel, live in Relation.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_RELATION_RELATION_H
#define TMW_RELATION_RELATION_H

#include "relation/EventSet.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <utility>

namespace tmw {

/// Word kernels of the packed layout: row A of the matrix is byte A of the
/// word.
namespace packed {
/// Bit 0 of every byte (column 0 of every row).
inline constexpr uint64_t kLowBits = 0x0101010101010101;
/// Bit A of byte A (the diagonal).
inline constexpr uint64_t kDiag = 0x8040201008040201;

/// The 8-bit row \p Bits copied into every byte.
inline uint64_t broadcast(uint64_t Bits) { return (Bits & 0xFF) * kLowBits; }

/// The rows of packed \p W whose column \p B is set, as whole bytes.
inline uint64_t rowsWithColumn(uint64_t W, unsigned B) {
  return ((W >> B) & kLowBits) * 0xFF;
}

/// Row \p A of packed \p W copied into every byte.
inline uint64_t broadcastRow(uint64_t W, unsigned A) {
  return broadcast(W >> 8 * A);
}

/// Warshall over packed \p W, a relation over \p N events: when row A
/// holds column Mid, row A gains row Mid.
inline uint64_t closure(uint64_t W, unsigned N) {
  for (unsigned Mid = 0; Mid < N; ++Mid)
    W |= rowsWithColumn(W, Mid) & broadcastRow(W, Mid);
  return W;
}
} // namespace packed

/// A binary relation over events {0, ..., Size-1}.
///
/// Storage words past the live ones are indeterminate and never read: the
/// sized constructor zeroes only the live words, `Relation()` (size 0,
/// packed) zeroes its one word, and a copy carries only the source's live
/// words.
/// Every pair held lies in {0, ..., Size-1}^2; every other bit of a live
/// word is zero, so the word operations need no mask.
class Relation {
public:
  Relation() : Size(0) { Rows[0] = 0; }
  explicit Relation(unsigned Size) : Size(Size) {
    assert(Size <= kMaxEvents && "execution too large");
    std::fill_n(Rows.begin(), liveWords(), 0);
  }
  Relation(const Relation &O) : Size(O.Size) {
    std::copy_n(O.Rows.begin(), liveWords(), Rows.begin());
  }
  /// memmove tolerates `&O == this`, so self-assignment needs no branch.
  Relation &operator=(const Relation &O) {
    Size = O.Size;
    std::memmove(Rows.data(), O.Rows.data(), liveWords() * sizeof(uint64_t));
    return *this;
  }

  unsigned size() const { return Size; }

  /// The empty relation over N events.
  static Relation empty(unsigned N) { return Relation(N); }

  /// The identity relation restricted to \p S, written [S] in the paper.
  static Relation identityOn(EventSet S, unsigned N);

  /// The full product A × B.
  static Relation cross(EventSet A, EventSet B, unsigned N);

  bool contains(EventId A, EventId B) const {
    assert(A < Size && B < Size);
    return (Rows[wordOf(A)] >> bitOf(A, B)) & 1;
  }
  void insert(EventId A, EventId B) {
    assert(A < Size && B < Size);
    Rows[wordOf(A)] |= uint64_t(1) << bitOf(A, B);
  }
  void erase(EventId A, EventId B) {
    assert(A < Size && B < Size);
    Rows[wordOf(A)] &= ~(uint64_t(1) << bitOf(A, B));
  }

  /// Successors of \p A.
  EventSet successors(EventId A) const {
    assert(A < Size);
    return EventSet(packed() ? (Rows[0] >> 8 * A) & 0xFF : Rows[A]);
  }

  bool isEmpty() const { return packed() ? Rows[0] == 0 : isEmptyRows(); }
  bool isIrreflexive() const;
  /// True when the relation has no cycle (of length >= 1).
  bool isAcyclic() const {
    // A relation is acyclic iff its transitive closure is irreflexive.
    if (packed())
      return (packed::closure(Rows[0], Size) & packed::kDiag) == 0;
    return closureRows().isIrreflexive();
  }
  /// Number of pairs in the relation.
  unsigned numPairs() const;

  /// Witness extraction for a failed `acyclic` axiom: the events of one
  /// cycle — a shortest cycle through the lowest-numbered event that lies
  /// on any cycle. Consecutive events of the cycle (and the closing edge)
  /// are pairs of this relation; a self-loop yields a singleton. Empty
  /// when the relation is acyclic.
  EventSet findCycle() const;
  /// Events e with (e, e) in the relation (the witnesses of a failed
  /// `irreflexive` axiom).
  EventSet reflexivePoints() const;

  bool operator==(const Relation &O) const;
  /// True when this is a subset of \p O.
  bool subsetOf(const Relation &O) const;

  Relation operator|(const Relation &O) const {
    assert(Size == O.Size && "size mismatch");
    if (packed())
      return packedWord(Size, Rows[0] | O.Rows[0]);
    Relation R = *this;
    R.unionRows(O);
    return R;
  }
  Relation operator&(const Relation &O) const {
    assert(Size == O.Size && "size mismatch");
    if (packed())
      return packedWord(Size, Rows[0] & O.Rows[0]);
    Relation R = *this;
    R.intersectRows(O);
    return R;
  }
  /// Set difference, written r1 \ r2.
  Relation operator-(const Relation &O) const {
    assert(Size == O.Size && "size mismatch");
    if (packed())
      return packedWord(Size, Rows[0] & ~O.Rows[0]);
    Relation R = *this;
    R.subtractRows(O);
    return R;
  }
  Relation &operator|=(const Relation &O) {
    assert(Size == O.Size && "size mismatch");
    if (!packed())
      return unionRows(O);
    Rows[0] |= O.Rows[0];
    return *this;
  }
  Relation &operator&=(const Relation &O) {
    assert(Size == O.Size && "size mismatch");
    if (!packed())
      return intersectRows(O);
    Rows[0] &= O.Rows[0];
    return *this;
  }
  Relation &operator-=(const Relation &O) {
    assert(Size == O.Size && "size mismatch");
    if (!packed())
      return subtractRows(O);
    Rows[0] &= ~O.Rows[0];
    return *this;
  }

  /// Relational composition r1 ; r2.
  Relation compose(const Relation &O) const {
    assert(Size == O.Size && "size mismatch");
    if (!packed())
      return composeRows(O);
    // Row A gains row Mid of O for each Mid in row A: per column Mid,
    // the rows holding it take O's row Mid broadcast to every byte.
    uint64_t Out = 0;
    for (unsigned Mid = 0; Mid < Size; ++Mid)
      Out |= packed::rowsWithColumn(Rows[0], Mid) &
             packed::broadcastRow(O.Rows[0], Mid);
    return packedWord(Size, Out);
  }
  /// The inverse relation r^-1.
  Relation inverse() const;
  /// Complement with respect to all event pairs, written ¬r.
  Relation complement() const;
  /// Reflexive closure r? (identity over *all* events of the execution).
  Relation optional() const {
    if (!packed())
      return optionalRows();
    return packedWord(Size, Rows[0] | (packed::broadcast(
                                           EventSet::universe(Size).bits()) &
                                       packed::kDiag));
  }
  /// Transitive closure r+.
  Relation transitiveClosure() const {
    if (!packed())
      return closureRows();
    return packedWord(Size, packed::closure(Rows[0], Size));
  }
  /// Reflexive transitive closure r*.
  Relation reflexiveTransitiveClosure() const;

  /// Restrict to pairs whose source is in \p S.
  Relation restrictDomain(EventSet S) const;
  /// Restrict to pairs whose target is in \p S.
  Relation restrictRange(EventSet S) const;

  /// Events with at least one outgoing edge.
  EventSet domain() const;
  /// Events with at least one incoming edge.
  EventSet range() const;
  /// domain(r) | range(r).
  EventSet field() const { return domain() | range(); }

  /// Apply to every pair (A, B) in ascending order of (A, B).
  template <typename Fn> void forEachPair(Fn &&F) const {
    for (EventId A = 0; A < Size; ++A)
      for (EventId B : successors(A))
        F(A, B);
  }

private:
  /// Relations over at most this many events use the packed layout.
  static constexpr unsigned kPackedEvents = 8;

  bool packed() const { return Size <= kPackedEvents; }
  /// Words holding live rows: the one packed word, or one per row.
  unsigned liveWords() const { return packed() ? 1 : Size; }
  /// The word and the bit within it of pair (A, B).
  unsigned wordOf(EventId A) const { return packed() ? 0 : A; }
  unsigned bitOf(EventId A, EventId B) const {
    return packed() ? 8 * A + B : B;
  }

  /// The packed relation over \p N events whose word is \p W.
  static Relation packedWord(unsigned N, uint64_t W) {
    Relation R;
    R.Size = N;
    R.Rows[0] = W;
    return R;
  }

  // The rows-layout bodies of the inline kernels (Relation.cpp).
  bool isEmptyRows() const;
  Relation &unionRows(const Relation &O);
  Relation &intersectRows(const Relation &O);
  Relation &subtractRows(const Relation &O);
  Relation composeRows(const Relation &O) const;
  Relation optionalRows() const;
  Relation closureRows() const;

  unsigned Size;
  std::array<uint64_t, kMaxEvents> Rows;
};

/// weaklift(r, t) = t ; (r \ t) ; t   (§3.3).
///
/// Treats each transaction as one node when it communicates with another
/// transaction.
Relation weakLift(const Relation &R, const Relation &T);

/// stronglift(r, t) = t? ; (r \ t) ; t?   (§3.3).
///
/// Also admits edges whose endpoints lie outside any transaction.
Relation strongLift(const Relation &R, const Relation &T);

} // namespace tmw

#endif // TMW_RELATION_RELATION_H
