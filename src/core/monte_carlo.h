// Waveform-level Monte-Carlo PER engine: runs the full 802.11b receive
// chain over noisy synthesized frames at a grid of SNRs. Used to validate
// the closed-form per_80211b() model (DESIGN.md's cross-check commitment)
// and by the ablation bench.
//
// Trials fan out across a std::thread pool. Every (point, trial) pair draws
// from its own counter-based RNG substream derived from the sweep seed, so
// the output is bit-identical regardless of thread count or scheduling
// (see trial_seed and DESIGN.md "Deterministic parallel RNG").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/impairments.h"
#include "wifi/rates.h"

namespace itb::core {

struct PerPoint {
  double snr_db;
  double per_monte_carlo;
  double per_closed_form;
  std::size_t trials;
  /// Failures by the first receive stage that lost the frame; they sum to
  /// per_monte_carlo * trials.
  std::size_t no_sync = 0;       ///< no chip lock or SFD, or header cut off
  std::size_t header_fail = 0;   ///< PLCP header failed its CRC or rate
  std::size_t payload_fail = 0;  ///< header ok, PSDU missing or wrong
};

struct MonteCarloConfig {
  itb::wifi::DsssRate rate = itb::wifi::DsssRate::k2Mbps;
  std::size_t psdu_bytes = 31;
  std::size_t trials_per_point = 40;
  std::uint64_t seed = 2024;
  /// Worker threads for the trial fan-out; 0 = all hardware threads.
  std::size_t num_threads = 0;
  /// RF impairments applied to every trial's waveform. Each (point, trial)
  /// draws its impairment randomness (multipath taps, phase noise, initial
  /// phase) from its own counter-based substream, so the sweep stays
  /// bit-identical at any thread count.
  std::optional<itb::channel::ImpairmentConfig> impairments;
};

/// Deterministic per-(point, trial) RNG substream seed: one SplitMix64-style
/// mix of the sweep seed with the trial's global counter. Exposed so tests
/// and future sweep engines can share the scheme.
std::uint64_t trial_seed(std::uint64_t sweep_seed, std::uint64_t point_index,
                         std::uint64_t trial_index);

/// Sweeps channel SNR (dB, in the 22 MHz channel bandwidth) and measures
/// frame error rate by decoding each noisy frame end-to-end, side by side
/// with the closed-form prediction. Throws std::invalid_argument if
/// cfg.trials_per_point is 0.
std::vector<PerPoint> per_vs_snr(const MonteCarloConfig& cfg,
                                 const std::vector<double>& snr_grid_db);

}  // namespace itb::core
