//===- Relaxation.h - The ⊏ order between executions ------------*- C++ -*-==//
///
/// \file
/// The relaxation order between executions (§4.2, after Lustig et al.):
/// X ⊏ Y when X is obtained from Y by one of
///
///   (i)   removing an event (plus incident edges),
///   (ii)  removing a dependency edge (addr, ctrl, data, rmw),
///   (iii) downgrading an event (e.g. acquire read to plain read), or
///   (v)   making the first or last event of a transaction
///         non-transactional.
///
/// Minimally inconsistent executions are inconsistent executions all of
/// whose one-step relaxations are consistent; maximally consistent
/// executions are the one-step relaxations of minimally inconsistent ones.
///
/// Canonicalisation (thread and location symmetry) deduplicates the
/// synthesised test suites.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_RELAXATION_H
#define TMW_ENUMERATE_RELAXATION_H

#include "enumerate/Enumerator.h"

#include <vector>

namespace tmw {

/// Remove event \p E from \p X, remapping ids and dropping incident edges.
Execution removeEvent(const Execution &X, EventId E);

/// All well-formed executions one ⊏-step below \p X under vocabulary \p V,
/// in a fixed order: event removals, dependency-edge removals (addr, data,
/// ctrl, rmw), downgrades, transaction shrinks, atomic{} downgrades.
std::vector<Execution> relaxOneStep(const Execution &X, const Vocabulary &V);

/// True when the analysed execution is inconsistent under \p M and every
/// one-step relaxation is consistent. Takes the (possibly shared) analysis
/// so the caller's `M.check` and this function's own top-level check reuse
/// the same derived relations; an `Execution` converts implicitly. The
/// relaxation children are checked through a reusable per-thread analysis
/// arena (safe: models are stateless and shards never share a thread).
///
/// Early exit: the children are generated one at a time, in
/// `relaxOneStep`'s order, and the first inconsistent one ends the search;
/// later children are never built or checked. The verdict, and the
/// sequence of model checks up to it, equal checking `relaxOneStep`'s
/// vector in order.
///
/// The Forbid search (`synthesizeForbid`) calls this only after reading
/// the transaction-only children — steps (v) and (iii') — of a placement
/// from the verdicts it already computed over the same base; one recorded
/// inconsistent child settles the answer without a call.
bool isMinimallyInconsistent(const ExecutionAnalysis &A, const MemoryModel &M,
                             const Vocabulary &V);

/// A serialisation of \p X that is invariant under renaming of threads (of
/// equal size) and locations: the lexicographically least encoding over all
/// such renamings. The bytes are a contract — every suite digest and
/// perfbench reference is a `canonicalHash` — and `relaxation_test` pins
/// them against the original one-vector-per-renaming encoder. Each thread
/// renaming is written into one fixed buffer (at most 1 + 64·`kMaxEvents`
/// bytes) with its locations numbered by first occurrence, which is the
/// least over the location renamings; only the returned vector is
/// allocated.
std::vector<uint8_t> canonicalEncoding(const Execution &X);

/// The same serialisation with the identity renaming — a total key on
/// *concrete* executions that discriminates between symmetry-equivalent
/// ones (which share `canonicalEncoding`). The synthesis layer keeps the
/// least-keyed representative of each canonical class, making the suite
/// byte-for-byte independent of enumeration order and shard count.
std::vector<uint8_t> concreteEncoding(const Execution &X);

/// FNV hash of `canonicalEncoding`, computed over the encoder's buffer
/// (no allocation).
uint64_t canonicalHash(const Execution &X);

} // namespace tmw

#endif // TMW_ENUMERATE_RELAXATION_H
