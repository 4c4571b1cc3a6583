//===- Execution.h - Candidate execution graphs -----------------*- C++ -*-==//
///
/// \file
/// Executions (§2.1) extended with transactions (§3.1) and lock-elision
/// method calls (§8.3). An execution is a graph over events with the basic
/// relations po, rf, co, addr/data/ctrl, and rmw; transactions are a
/// per-event class id inducing the `stxn` partial equivalence relation, and
/// critical regions similarly induce `scr`.
///
/// The derived relations of §2.1 (fr, com, internal/external restrictions,
/// fence relations, tfence) are provided as methods. These re-derive on
/// every call; the consistency-check hot path goes through
/// `ExecutionAnalysis` (ExecutionAnalysis.h), which memoizes each derived
/// term once per immutable execution — keep the two in sync (the analysis
/// cross-check test enforces agreement).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_EXECUTION_EXECUTION_H
#define TMW_EXECUTION_EXECUTION_H

#include "execution/Event.h"
#include "relation/Relation.h"

#include <array>
#include <string>

namespace tmw {

/// Marker for events outside any transaction / critical region.
inline constexpr int kNoClass = -1;

/// Cap on transaction classes per execution (fits an atomicity bitmask).
inline constexpr unsigned kMaxTxns = 32;

/// A candidate execution graph.
///
/// Fields are public so that builders and the exhaustive enumerator can fill
/// them directly; call `checkWellFormed()` (or `checkShape()`, which skips
/// rf and co) to validate the result against the well-formedness
/// conditions of §2.1/§3.1.
class Execution {
public:
  Execution() { clear(0); }
  explicit Execution(unsigned NumEvents) { clear(NumEvents); }

  /// Reset to \p NumEvents default-constructed events and empty relations.
  void clear(unsigned NumEvents);

  unsigned size() const { return Num; }
  EventSet universe() const { return EventSet::universe(Num); }

  const Event &event(EventId E) const {
    assert(E < Num);
    return Events[E];
  }
  Event &event(EventId E) {
    assert(E < Num);
    return Events[E];
  }

  /// Number of threads (1 + max thread index).
  unsigned numThreads() const;
  /// Number of locations (1 + max location index), 0 if none accessed.
  unsigned numLocations() const;
  /// Number of transaction classes (1 + max class id).
  unsigned numTxns() const;
  /// Number of critical regions (1 + max region id).
  unsigned numCrs() const;

  //===--------------------------------------------------------------------===
  // Basic relations (stored).
  //===--------------------------------------------------------------------===

  /// Program order: strict total order per thread.
  Relation Po;
  /// Reads-from: writes to reads of the same location.
  Relation Rf;
  /// Coherence: strict total order over the writes to each location.
  Relation Co;
  /// Address dependencies (read to po-later access).
  Relation Addr;
  /// Data dependencies (read to po-later write).
  Relation Data;
  /// Control dependencies (read to po-later events; forward-closed).
  Relation Ctrl;
  /// Read-modify-write pairing (read to its paired write).
  Relation Rmw;

  /// Transaction class per event, `kNoClass` when not transactional.
  std::array<int, kMaxEvents> Txn;
  /// Bitmask of transaction classes that are C++ `atomic{}` transactions.
  uint32_t AtomicTxns = 0;
  /// Critical-region class per event, `kNoClass` when outside any CR.
  std::array<int, kMaxEvents> Cr;

  //===--------------------------------------------------------------------===
  // Event sets.
  //===--------------------------------------------------------------------===

  EventSet reads() const;
  EventSet writes() const;
  EventSet fences() const;
  /// Reads and writes.
  EventSet accesses() const;
  /// Fences of flavour \p K.
  EventSet fences(FenceKind K) const;
  /// C++ atomic events (Ato in Fig. 9).
  EventSet atomics() const;
  /// Events with acquire semantics (reads/fences).
  EventSet acquires() const;
  /// Events with release semantics (writes/fences).
  EventSet releases() const;
  /// Events with SC consistency mode.
  EventSet seqCst() const;
  /// Events of kind \p K.
  EventSet ofKind(EventKind K) const;
  /// Events inside some successful transaction.
  EventSet transactional() const;
  /// Events inside some C++ atomic transaction.
  EventSet atomicTransactional() const;
  /// Events accessing location \p L.
  EventSet atLocation(LocId L) const;
  /// Events of thread \p T.
  EventSet ofThread(unsigned T) const;

  //===--------------------------------------------------------------------===
  // Derived relations (§2.1, §3.1, §3.3).
  //===--------------------------------------------------------------------===

  /// Same-location relation over memory accesses (includes identity pairs).
  Relation sloc() const;
  /// Same-thread relation, (po ∪ po^-1)^* — includes identity pairs.
  Relation sameThread() const;
  /// po restricted to same-location pairs.
  Relation poLoc() const;
  /// Immediate program order (po minus po;po).
  Relation poImm() const;
  /// From-read: fr = ([R] ; sloc ; [W]) \ (rf^-1 ; (co^-1)^*).
  Relation fr() const;
  /// Communication: com = rf ∪ co ∪ fr.
  Relation com() const;
  /// Extended communication (§7.2): ecom = com ∪ (co ; rf).
  Relation ecom() const;

  /// Inter-thread restriction r^e = r \ sameThread.
  Relation external(const Relation &R) const;
  /// Intra-thread restriction r^i = r ∩ sameThread.
  Relation internal(const Relation &R) const;

  Relation rfe() const { return external(Rf); }
  Relation rfi() const { return internal(Rf); }
  Relation coe() const { return external(Co); }
  Relation coi() const { return internal(Co); }
  Relation fre() const { return external(fr()); }
  Relation fri() const { return internal(fr()); }

  /// po ; [F_K] ; po — events separated by a fence of flavour \p K.
  Relation fenceRel(FenceKind K) const;

  /// Transaction equivalence (symmetric, transitive, reflexive on events in
  /// successful transactions).
  Relation stxn() const;
  /// `stxn` restricted to C++ atomic transactions (stxnat, §7.2).
  Relation stxnAtomic() const;
  /// Implicit transaction fences: po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn)).
  Relation tfence() const;

  /// Critical-region equivalence (§8.3), reflexive on events in CRs.
  Relation scr() const;
  /// `scr` restricted to CRs that will be transactionalised.
  Relation scrt() const;
  /// True when CR \p C is opened by a TxLock (an elided region).
  bool crTransactional(int C) const;

  //===--------------------------------------------------------------------===
  // Well-formedness and utilities.
  //===--------------------------------------------------------------------===

  /// Every well-formedness clause except rf's and co's: locations, po,
  /// dependencies, rmw, transactions and critical regions, in that order.
  /// Returns nullptr when they hold, otherwise a static description of the
  /// first violated one. An rf/co choice cannot change the answer, so an
  /// enumerator whose rf/co choices are well-formed by construction
  /// (`forEachRfCo`) checks its shape once, before the search.
  const char *checkShape() const;

  /// Returns nullptr when well-formed, otherwise a static description of the
  /// first violated condition: `checkShape()`, then the rf and co clauses.
  const char *checkWellFormed() const;

  /// Multi-line dump ("a: W x (T0) [txn 0]" plus relation edge lists).
  std::string dump() const;

  /// Structural fingerprint used to deduplicate executions that are equal
  /// up to nothing (exact equality of all fields).
  uint64_t hash() const;
  bool operator==(const Execution &O) const;

private:
  /// `checkShape()` over precomputed `reads()`, `writes()` and `sloc()`,
  /// which `checkWellFormed()` shares with its rf and co clauses.
  const char *checkShape(EventSet R, EventSet W, const Relation &Sloc) const;

  unsigned Num = 0;
  std::array<Event, kMaxEvents> Events;
};

} // namespace tmw

#endif // TMW_EXECUTION_EXECUTION_H
