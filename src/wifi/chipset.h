// Wi-Fi chipset scrambler-seed policies (paper §4.4).
//
// 802.11 says the scrambler seed is a "pseudo-random non-zero value", but
// real silicon behaves predictably: the paper measured AR5001G / AR5007G /
// AR9580 incrementing the seed by one per frame, and ath5k allows pinning a
// fixed seed via the GEN_SCRAMBLER field of the AR5K_PHY_CTL register. The
// AM downlink relies on one of these predictable policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/rng.h"

namespace itb::wifi {

enum class SeedPolicy {
  kIncrementPerFrame,  ///< seed_{n+1} = (seed_n mod 127) + 1
  kFixed,              ///< driver-pinned seed (ath5k GEN_SCRAMBLER)
  kRandom,             ///< spec-faithful adversarial case
};

struct ChipsetModel {
  std::string name;
  SeedPolicy policy;
  std::uint8_t fixed_seed = 0x5D;  ///< used by kFixed
};

/// The chipsets the paper measured.
ChipsetModel ar5001g();
ChipsetModel ar5007g();
ChipsetModel ar9580();
ChipsetModel ath5k_fixed(std::uint8_t seed);
ChipsetModel generic_random();

/// Stateful seed source reproducing a chipset's behaviour across frames.
class SeedSequencer {
 public:
  SeedSequencer(const ChipsetModel& model, std::uint64_t rng_seed,
                std::uint8_t initial = 0x24);

  /// Seed for the next transmitted frame.
  std::uint8_t next();

 private:
  ChipsetModel model_;
  std::uint8_t current_;
  itb::dsp::Xoshiro256 rng_;
};

/// Seed-tracking result over a burst of observed frames (the §4.4
/// experiment): classify whether the observed sequence is incrementing,
/// fixed, or unpredictable.
struct SeedObservation {
  std::vector<std::uint8_t> seeds;
  bool looks_incrementing = false;
  bool looks_fixed = false;
};
SeedObservation classify_seeds(const std::vector<std::uint8_t>& seeds);

}  // namespace itb::wifi
