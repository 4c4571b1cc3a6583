//===- LitmusRunner.cpp - Running tests on simulated hardware -----------------==//

#include "hw/LitmusRunner.h"

#include "enumerate/Candidates.h"
#include "hw/TsoMachine.h"

#include <random>

using namespace tmw;

namespace {

/// Weighted sampling: outcome 0 (typically the SC-like interleaving) is
/// hot; later outcomes are geometrically rarer, like weak behaviours on
/// real machines.
RunReport sampleHistogram(const Program &P,
                          const std::vector<Outcome> &Reachable,
                          uint64_t Runs, uint64_t Seed) {
  RunReport R;
  R.Runs = Runs;
  for (const Outcome &O : Reachable)
    R.Seen |= O.satisfies(P);
  if (Reachable.empty())
    return R;

  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Counts(Reachable.size(), 0);
  std::vector<double> Weights(Reachable.size());
  for (unsigned I = 0; I < Reachable.size(); ++I)
    Weights[I] = 1.0 / static_cast<double>(1 + I * I);
  std::discrete_distribution<unsigned> Pick(Weights.begin(), Weights.end());
  for (uint64_t I = 0; I < Runs; ++I)
    ++Counts[Pick(Rng)];
  // Exhaustiveness guarantee: every reachable outcome appears at least
  // once in a long campaign.
  for (unsigned I = 0; I < Reachable.size(); ++I)
    if (Counts[I] == 0 && Runs >= Reachable.size())
      Counts[I] = 1;
  for (unsigned I = 0; I < Reachable.size(); ++I)
    R.Histogram.push_back({Reachable[I], Counts[I]});
  return R;
}

} // namespace

RunReport tmw::runOnTso(const Program &P, uint64_t Runs, uint64_t Seed) {
  TsoMachine M(P);
  return sampleHistogram(P, M.reachableOutcomes(), Runs, Seed);
}

bool tmw::observedForbiddenBehaviour(const Program &P,
                                     const MemoryModel &Spec,
                                     const std::vector<Outcome> &Observed) {
  std::vector<Candidate> Cands = enumerateCandidates(P);
  for (const Outcome &O : Observed) {
    if (!O.satisfies(P))
      continue;
    bool Explained = false;
    for (const Candidate &C : Cands)
      if (C.O == O && Spec.consistent(C.X)) {
        Explained = true;
        break;
      }
    if (!Explained)
      return true;
  }
  return false;
}

std::vector<Outcome> tmw::outcomesOf(const RunReport &R) {
  std::vector<Outcome> Out;
  for (const auto &[O, N] : R.Histogram)
    if (N > 0)
      Out.push_back(O);
  return Out;
}

RunReport tmw::runOnImpl(const Program &P, const MemoryModel &Impl,
                         uint64_t Runs, uint64_t Seed) {
  return sampleHistogram(P, allowedOutcomes(P, Impl), Runs, Seed);
}
