//===- Candidates.h - Candidate executions of a program ---------*- C++ -*-==//
///
/// \file
/// Generates the candidate executions of a litmus-test program under a
/// non-deterministic memory system (§2): every load may observe any store
/// to the same location (or the initial value), coherence is any total
/// order per location, and each transaction succeeds or fails
/// non-deterministically — a failed transaction's events vanish (§3.1) and
/// its abort handler zeroes the `ok` location of the outcome.
///
/// Filtering the candidates through a `MemoryModel` yields the behaviours
/// the model allows — the herd-style simulation flow used both by the
/// model-level "run" of a test and by the axiomatic hardware substitutes.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_CANDIDATES_H
#define TMW_ENUMERATE_CANDIDATES_H

#include "execution/Execution.h"
#include "litmus/Program.h"
#include "models/MemoryModel.h"

#include <functional>
#include <vector>

namespace tmw {

/// A candidate execution together with the outcome it produces.
struct Candidate {
  Execution X;
  Outcome O;
};

/// Stream every well-formed candidate execution of \p P into \p Sink, in
/// a deterministic order (transaction success masks, then rf choices,
/// then co permutations; see `forEachRfCo` in enumerate/Enumerator.h). The
/// candidate is one buffer completed in place and only valid for the
/// duration of the call; copy it to keep it. \p Sink returns false to
/// stop the enumeration early (e.g. a candidate cap). This is the single
/// enumeration primitive: a consumer that checks one program against many
/// models should enumerate once through here and fan each candidate out
/// to all models (see query/QueryEngine), instead of re-enumerating per
/// model.
///
/// Each success mask yields one shape (the events and their po,
/// dependencies, rmw, transactions and critical regions), checked once
/// with `Execution::checkShape()`; the rf/co choices over a well-formed
/// shape are well-formed by construction. An ill-formed shape — e.g. an
/// aborted transaction dropping the `unlock` of a region opened before
/// it — yields no candidate. Returns the first ill-formed shape's reason,
/// or nullptr when every shape is well-formed. Every shape is checked,
/// also after \p Sink stopped, so the answer does not depend on where
/// it stopped.
///
/// \p P must fit the enumeration caps (`capFindings` in lint/Lint.h is
/// empty): a shape past `kMaxEvents` events is skipped, and the success
/// masks number 2^transactions. The query engine refuses programs that
/// do not fit rather than answer from a partial candidate set.
const char *
forEachCandidate(const Program &P,
                 const std::function<bool(const Candidate &)> &Sink);

/// All well-formed candidate executions of \p P, materialised.
std::vector<Candidate> enumerateCandidates(const Program &P);

/// The outcomes of \p P permitted by \p M: outcomes of the consistent
/// candidates, deduplicated and sorted.
std::vector<Outcome> allowedOutcomes(const Program &P, const MemoryModel &M);

/// True when some consistent candidate satisfies the postcondition of
/// \p P — i.e. the model \p M allows the behaviour the test checks for.
bool postconditionReachable(const Program &P, const MemoryModel &M);

} // namespace tmw

#endif // TMW_ENUMERATE_CANDIDATES_H
