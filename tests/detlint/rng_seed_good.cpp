// detlint fixture (never compiled): compliant engine seeding — substream
// helpers, explicit splitmix64 domain mixes, pinned literal roots, and
// pass-by-reference plumbing. Must produce zero findings.
#include <cstdint>

#include "core/monte_carlo.h"
#include "dsp/rng.h"
#include "sim/entity_stream.h"

double trial_draw(std::uint64_t sweep_seed, std::uint64_t point,
                  std::uint64_t trial) {
  itb::dsp::Xoshiro256 rng(itb::core::trial_seed(sweep_seed, point, trial));
  return rng.uniform();
}

double entity_draw(std::uint64_t sim_seed, std::uint32_t entity) {
  auto rng = itb::sim::entity_stream(sim_seed, entity, 0);
  return rng.uniform();
}

double domain_mixed(std::uint64_t seed) {
  itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed ^ 0x746F706FULL));
  return rng.uniform();
}

double pinned_literal_root() {
  itb::dsp::Xoshiro256 rng(20240607);
  return rng.uniform();
}

// References/parameters are plumbing, not seeding.
double draw_from(itb::dsp::Xoshiro256& rng) { return rng.uniform(); }
