//===- SessionCache.cpp - Resident parse/resolve caches ------------------------==//

#include "query/SessionCache.h"

#include "models/ModelRegistry.h"

#include <algorithm>
#include <vector>

using namespace tmw;

std::shared_ptr<const ParseResult> SessionCache::program(
    std::string_view Source, ProgramFacts *Facts) {
  // Bound 0 keeps nothing: parse and scan afresh, without a key copy.
  if (MaxPrograms == 0) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++S.ProgramMisses;
    }
    auto Parsed = std::make_shared<const ParseResult>(parseProgram(Source));
    if (Facts)
      *Facts = *Parsed ? computeFacts(Parsed->Prog) : ProgramFacts();
    return Parsed;
  }
  std::string Key(Source);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Programs.find(Key);
    if (It != Programs.end()) {
      ++S.ProgramHits;
      // Refresh the recency stamp: overflow evicts the least-recently-
      // touched half, so a hot working set survives an adversarial churn
      // of one-off sources.
      It->second.Gen = ++NextGen;
      if (Facts)
        *Facts = It->second.Facts;
      return It->second.Parse;
    }
    ++S.ProgramMisses;
  }
  // Parse outside the lock: batches parse distinct programs concurrently.
  // Two workers racing on the same source both parse; the results are
  // identical (parsing is deterministic), so whichever insert lands is
  // fine and the loser's copy just serves its own request. Facts ride
  // along: computed once here, handed out with every future hit.
  auto Parsed = std::make_shared<const ParseResult>(parseProgram(Source));
  ProgramFacts ParsedFacts;
  if (*Parsed)
    ParsedFacts = computeFacts(Parsed->Prog);
  if (Facts)
    *Facts = ParsedFacts;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Programs.size() >= MaxPrograms) {
    // Evict only the least-recently-touched half (wholesale dropping all
    // ~MaxPrograms entries caused a thundering re-parse of the whole
    // working set on the next batch). Generations are unique, so exactly
    // `Evict` entries — the oldest — go. Verdict-neutral: in-flight
    // requests keep their shared_ptrs, dropped entries just re-parse.
    size_t Evict = Programs.size() - Programs.size() / 2;
    std::vector<uint64_t> Gens;
    Gens.reserve(Programs.size());
    for (const auto &KV : Programs)
      Gens.push_back(KV.second.Gen);
    std::nth_element(Gens.begin(), Gens.begin() + (Evict - 1), Gens.end());
    uint64_t Cut = Gens[Evict - 1];
    for (auto It = Programs.begin(); It != Programs.end();) {
      if (It->second.Gen <= Cut)
        It = Programs.erase(It);
      else
        ++It;
    }
    ++S.ProgramEvictions;
    S.ProgramsEvicted += Evict;
  }
  auto [It, Inserted] = Programs.emplace(
      std::move(Key), ProgramEntry{Parsed, ParsedFacts, ++NextGen});
  S.ProgramsCached = Programs.size();
  return Inserted ? Parsed : It->second.Parse;
}

std::shared_ptr<const MemoryModel> SessionCache::model(
    const std::string &Spec, std::string *Error, std::string *Canonical) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Models.find(Spec);
    if (It != Models.end()) {
      ++S.ModelHits;
      if (Canonical)
        *Canonical = It->second.Canonical;
      return It->second.Model;
    }
    ++S.ModelMisses;
  }
  // Resolve and print outside the lock, once per distinct spec string.
  ModelEntry E{ModelRegistry::parse(Spec, Error), {}};
  if (!E.Model)
    return nullptr;
  E.Canonical = ModelRegistry::print(*E.Model);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Models.emplace(Spec, std::move(E)).first;
  S.ModelsCached = Models.size();
  if (Canonical)
    *Canonical = It->second.Canonical;
  return It->second.Model;
}

std::shared_ptr<const EvalPlan>
SessionCache::plan(const std::string &Key,
                   std::span<const MemoryModel *const> Models, bool *Hit) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Plans.find(Key);
    if (It != Plans.end()) {
      ++S.PlanHits;
      if (Hit)
        *Hit = true;
      return It->second;
    }
    ++S.PlanMisses;
    if (Hit)
      *Hit = false;
  }
  // Compile outside the lock; racing workers produce identical plans
  // (compilation is deterministic), so either insert may land.
  auto P = std::make_shared<const EvalPlan>(EvalPlan::compile(Models));
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Plans.emplace(Key, P);
  S.PlansCached = Plans.size();
  return Inserted ? P : It->second;
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void SessionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Programs.clear();
  Models.clear();
  Plans.clear();
  S.ProgramsCached = S.ModelsCached = S.PlansCached = 0;
}
