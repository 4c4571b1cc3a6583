//===- SessionCache.h - Resident parse/resolve caches ----------*- C++ -*-==//
///
/// \file
/// The state a long-lived query session keeps resident across batches so
/// repeated queries stop paying per-batch setup: parsed `Program`s keyed
/// by their full DSL source (content-addressed through the map's string
/// hash — identical source always hits, and an entry can never go stale),
/// and resolved model-registry specs interned by spec string, each with
/// its canonical printed spelling (models are immutable after
/// configuration, so one instance is shared freely across worker threads
/// and batches).
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
/// parse would never be hit. The model and plan caches are tiny (spec
/// strings, spec sets) and unbounded.
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
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tmw {

/// Resident caches of one query session (see file comment).
class SessionCache {
public:
  /// Hit/miss accounting, for observability and the cache tests.
  struct Stats {
    uint64_t ProgramHits = 0, ProgramMisses = 0;
    uint64_t ModelHits = 0, ModelMisses = 0;
    uint64_t PlanHits = 0, PlanMisses = 0;
    /// Entries currently resident.
    uint64_t ProgramsCached = 0, ModelsCached = 0, PlansCached = 0;
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

  /// Resolve-or-fetch the registry spec \p Spec. Returns nullptr (and
  /// sets \p Error) for an unresolvable spec; failures are not cached.
  /// \p Canonical, when non-null, receives the model's canonical spelling
  /// (`ModelRegistry::print`), printed once when the spec is first
  /// resolved and served with every hit.
  std::shared_ptr<const MemoryModel> model(const std::string &Spec,
                                           std::string *Error = nullptr,
                                           std::string *Canonical = nullptr);

  /// Compile-or-fetch the cross-spec evaluation plan for \p Models,
  /// keyed by \p Key — the request's *canonical* printed specs joined by
  /// newlines, so every way of writing the same resolved spec list hits
  /// one plan. Compilation is deterministic over the resolved models, so
  /// a cached plan is identical to a fresh one. It runs outside the lock:
  /// threads racing the first lookups of one key may each compile a copy
  /// (so a spec set compiles at most once per racing thread), one copy
  /// becomes resident, and every later lookup hits it. \p Hit, when set,
  /// reports whether this lookup was served resident.
  std::shared_ptr<const EvalPlan>
  plan(const std::string &Key, std::span<const MemoryModel *const> Models,
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

  const size_t MaxPrograms;
  mutable std::mutex Mu;
  std::unordered_map<std::string, ProgramEntry> Programs;
  uint64_t NextGen = 0;
  /// One interned resolution: the model and its canonical spelling.
  struct ModelEntry {
    std::shared_ptr<const MemoryModel> Model;
    std::string Canonical;
  };
  std::unordered_map<std::string, ModelEntry> Models;
  /// Compiled evaluation plans keyed by canonical spec-set (tiny, like
  /// the model cache: sessions check a handful of spec sets).
  std::unordered_map<std::string, std::shared_ptr<const EvalPlan>> Plans;
  Stats S;
};

} // namespace tmw

#endif // TMW_QUERY_SESSIONCACHE_H
