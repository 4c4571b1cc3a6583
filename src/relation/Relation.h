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
/// Storage contract: every relation owns `kMaxEvents` rows, but only the
/// live rows `[0, size())` are ever written or read. Construction, copies
/// and every operation touch those rows alone, so the work scales with the
/// events an execution really has (a handful in the synthesis search),
/// not with the cap.
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

/// A binary relation over events {0, ..., Size-1}.
///
/// Rows at or above `size()` are indeterminate and never read: the sized
/// constructor zeroes only the live rows, `Relation()` (size 0) touches
/// none, and a copy carries only the source's live rows. Every column bit
/// of a live row is below `size()`.
class Relation {
public:
  Relation() : Size(0) {}
  explicit Relation(unsigned Size) : Size(Size) {
    assert(Size <= kMaxEvents && "execution too large");
    std::fill_n(Rows.begin(), Size, 0);
  }
  Relation(const Relation &O) : Size(O.Size) {
    std::copy_n(O.Rows.begin(), Size, Rows.begin());
  }
  /// memmove tolerates `&O == this`, so self-assignment needs no branch.
  Relation &operator=(const Relation &O) {
    Size = O.Size;
    std::memmove(Rows.data(), O.Rows.data(), Size * sizeof(uint64_t));
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
    return (Rows[A] >> B) & 1;
  }
  void insert(EventId A, EventId B) {
    assert(A < Size && B < Size);
    Rows[A] |= uint64_t(1) << B;
  }
  void erase(EventId A, EventId B) {
    assert(A < Size && B < Size);
    Rows[A] &= ~(uint64_t(1) << B);
  }

  /// Successors of \p A.
  EventSet successors(EventId A) const {
    assert(A < Size);
    return EventSet(Rows[A]);
  }

  bool isEmpty() const;
  bool isIrreflexive() const;
  /// True when the relation has no cycle (of length >= 1).
  bool isAcyclic() const;
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

  Relation operator|(const Relation &O) const;
  Relation operator&(const Relation &O) const;
  /// Set difference, written r1 \ r2.
  Relation operator-(const Relation &O) const;
  Relation &operator|=(const Relation &O);
  Relation &operator&=(const Relation &O);
  Relation &operator-=(const Relation &O);

  /// Relational composition r1 ; r2.
  Relation compose(const Relation &O) const;
  /// The inverse relation r^-1.
  Relation inverse() const;
  /// Complement with respect to all event pairs, written ¬r.
  Relation complement() const;
  /// Reflexive closure r? (identity over *all* events of the execution).
  Relation optional() const;
  /// Transitive closure r+.
  Relation transitiveClosure() const;
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
      for (EventId B : EventSet(Rows[A]))
        F(A, B);
  }

private:
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
