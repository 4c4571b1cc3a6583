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
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Programs.find(Source);
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
      std::string(Source), ProgramEntry{Parsed, ParsedFacts, ++NextGen});
  S.ProgramsCached = Programs.size();
  return Inserted ? Parsed : It->second.Parse;
}

std::shared_ptr<const SpecSet>
SessionCache::specs(const std::vector<std::string> &Specs, std::string *Error,
                    bool *Hit) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Sets.find(Specs);
    if (It != Sets.end()) {
      ++S.SpecSetHits;
      if (Hit)
        *Hit = true;
      return It->second;
    }
    ++S.SpecSetMisses;
    if (Hit)
      *Hit = false;
  }
  // Resolve, print and compile outside the lock, once per distinct list
  // (per racing worker at worst: building is deterministic, so either
  // insert may land).
  std::vector<std::string> Names = Specs;
  if (Names.empty())
    for (Arch A : ModelRegistry::allArchs())
      Names.push_back(ModelRegistry::archSpecName(A));
  auto Set = std::make_shared<SpecSet>();
  std::vector<const MemoryModel *> Raw;
  for (const std::string &Name : Names) {
    std::string Why;
    std::unique_ptr<const MemoryModel> M = ModelRegistry::parse(Name, &Why);
    if (!M) {
      if (Error)
        *Error = "model spec '" + Name + "': " + Why;
      return nullptr;
    }
    Set->Canonical.push_back(ModelRegistry::print(*M));
    Raw.push_back(M.get());
    Set->Models.push_back(std::move(M));
  }
  Set->Plan = EvalPlan::compile(Raw);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Sets.emplace(Specs, std::move(Set)).first;
  S.SpecSetsCached = Sets.size();
  return It->second;
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void SessionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Programs.clear();
  Sets.clear();
  S.ProgramsCached = S.SpecSetsCached = 0;
}
