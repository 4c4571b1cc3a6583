//===- SessionCache.h - Resident parse/resolve caches ----------*- C++ -*-==//
///
/// \file
/// The state a long-lived query session keeps resident across batches so
/// repeated queries stop paying per-batch setup: parsed `Program`s keyed
/// by their full DSL source (content-addressed through the map's string
/// hash — identical source always hits, and an entry can never go stale;
/// a lookup hashes the source as a view, so only a miss copies it),
/// and resolved spec lists keyed by the list as written, each with its
/// models, their canonical printed spellings and the cross-spec
/// evaluation plan compiled over them (models and plans are immutable,
/// so one set is shared freely across worker threads and batches).
///
/// Ownership contract: lookups hand out `shared_ptr`s, so an entry stays
/// alive for as long as any in-flight request references it — eviction
/// (or `clear()`) during evaluation is safe. Parse *failures* are cached
/// too: a long-lived server would otherwise re-parse a repeatedly
/// submitted bad program from scratch every batch.
///
/// The program cache is bounded (`MaxPrograms`); when an insert would
/// exceed the bound, the *least-recently-touched half* of the entries is
/// evicted (each entry carries a generation stamp, refreshed on hit) —
/// correct under the content-addressed contract (nothing can be stale, a
/// dropped entry just re-parses), and it keeps an adversarial stream of
/// unique sources from growing the server without bound. Half-eviction
/// replaces the original wholesale drop, which re-parsed the *entire*
/// resident working set on the next batch — a thundering re-parse spike
/// under the multiplexer when many rival clients share the one cache.
/// A bound of 0 keeps no parses at all: `program` parses and scans every
/// source afresh and never evicts. That is the cache a one-shot batch
/// owns (query/QueryEngine.h): its sources arrive once each, so a kept
/// parse would never be hit. The spec-set cache is tiny (sessions check a
/// handful of spec lists) and unbounded.
///
/// Thread-safe: one mutex guards the maps; lookups are cheap next to
/// enumeration, so the lock is uncontended in practice.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_QUERY_SESSIONCACHE_H
#define TMW_QUERY_SESSIONCACHE_H

#include "lint/Lint.h"
#include "litmus/Parser.h"
#include "models/EvalPlan.h"
#include "models/MemoryModel.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tmw {

/// One resolved spec list: model i, its canonical spelling
/// (`ModelRegistry::print`) and spec i of the plan all answer entry i of
/// the list. Immutable once built; shared freely across threads.
struct SpecSet {
  std::vector<std::unique_ptr<const MemoryModel>> Models;
  std::vector<std::string> Canonical;
  EvalPlan Plan;
};

/// Resident caches of one query session (see file comment).
class SessionCache {
public:
  /// Hit/miss accounting, for observability and the cache tests.
  struct Stats {
    uint64_t ProgramHits = 0, ProgramMisses = 0;
    uint64_t SpecSetHits = 0, SpecSetMisses = 0;
    /// Entries currently resident.
    uint64_t ProgramsCached = 0, SpecSetsCached = 0;
    /// Times the bounded program map overflowed (one half-eviction each)
    /// and total entries dropped across those evictions.
    uint64_t ProgramEvictions = 0, ProgramsEvicted = 0;
  };

  explicit SessionCache(size_t MaxPrograms = kDefaultMaxPrograms)
      : MaxPrograms(MaxPrograms) {}

  /// Parse-or-fetch \p Source. The result (including a parse failure) is
  /// cached under the full source text; the returned pointer keeps the
  /// program alive independently of the cache. \p Facts, when non-null,
  /// receives the program's static facts (lint/Lint.h) — computed once at
  /// parse time and cached beside the parse, so repeated queries against
  /// a resident program pay for the facts scan exactly once. (Default-
  /// valued for a failed parse, which has no program to specialize.)
  std::shared_ptr<const ParseResult> program(std::string_view Source,
                                             ProgramFacts *Facts = nullptr);

  /// Resolve-or-fetch the spec list \p Specs (empty = the six default
  /// architectures): its models, canonical spellings and compiled plan.
  /// Keyed by the list as written, so two spellings of one set build two
  /// identical sets. Built outside the lock: threads racing the first
  /// lookups of one list may each build a copy, one copy becomes
  /// resident, and every later lookup hits it. Returns nullptr for a list
  /// with an unresolvable spec, setting \p Error to
  /// `model spec '<spec>': <registry error>` for the first one; failures
  /// are not cached. \p Hit, when set, reports whether this lookup was
  /// served resident.
  std::shared_ptr<const SpecSet> specs(const std::vector<std::string> &Specs,
                                       std::string *Error = nullptr,
                                       bool *Hit = nullptr);

  Stats stats() const;

  /// Drop everything (in-flight requests keep their shared_ptrs).
  void clear();

  static constexpr size_t kDefaultMaxPrograms = 4096;

private:
  /// One bounded-map entry: the parse, its static facts (computed at
  /// insert, served with every hit), and its recency stamp (refreshed on
  /// hit), so overflow evicts the least-recently-touched half.
  struct ProgramEntry {
    std::shared_ptr<const ParseResult> Parse;
    ProgramFacts Facts;
    uint64_t Gen = 0;
  };

  /// Hashes a source as a view, so a lookup needs no key string.
  struct SourceHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  const size_t MaxPrograms;
  mutable std::mutex Mu;
  std::unordered_map<std::string, ProgramEntry, SourceHash, std::equal_to<>>
      Programs;
  uint64_t NextGen = 0;
  std::map<std::vector<std::string>, std::shared_ptr<const SpecSet>> Sets;
  Stats S;
};

} // namespace tmw

#endif // TMW_QUERY_SESSIONCACHE_H
