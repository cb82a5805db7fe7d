// RNG discipline for the network simulator: handlers never share an RNG.
// Every stochastic decision draws from a counter-based substream keyed by
// the entity and a per-entity counter, reusing the Monte-Carlo
// trial_seed() mix, so outcomes depend only on *which* decision is being
// made, never on the order decisions are made in (see DESIGN.md "Network
// simulator determinism").
#pragma once

#include <cstdint>

#include "core/monte_carlo.h"
#include "dsp/rng.h"

namespace itb::sim {

/// Deterministic per-(entity, decision) RNG substream: depends only on the
/// sim seed and the (entity, counter) coordinates.
inline itb::dsp::Xoshiro256 entity_stream(std::uint64_t sim_seed,
                                          std::uint32_t entity,
                                          std::uint64_t counter) {
  return itb::dsp::Xoshiro256(itb::core::trial_seed(sim_seed, entity, counter));
}

}  // namespace itb::sim
