#include "core/monte_carlo.h"

#include <stdexcept>
#include <utility>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/arena.h"
#include "core/parallel.h"
#include "dsp/rng.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"

namespace itb::core {

std::uint64_t trial_seed(std::uint64_t sweep_seed, std::uint64_t point_index,
                         std::uint64_t trial_index) {
  // Counter-based substream: the (point, trial) pair forms a unique 64-bit
  // counter; two SplitMix64 rounds decorrelate it from the sweep seed. Each
  // Xoshiro256 constructed from the result re-expands through SplitMix64
  // again, so neighbouring counters share no state.
  using itb::dsp::splitmix64;
  return splitmix64(sweep_seed ^ splitmix64((point_index << 32) | trial_index));
}

namespace {

/// A trial's outcome: decoded, or the first receive stage that lost it
/// (PerPoint's no_sync / header_fail / payload_fail).
enum class TrialStage : std::uint8_t {
  kDecoded,
  kNoSync,
  kHeaderFail,
  kPayloadFail,
};

}  // namespace

std::vector<PerPoint> per_vs_snr(const MonteCarloConfig& cfg,
                                 const std::vector<double>& snr_grid_db) {
  // A point with no trials has no PER (0/0), so refuse the config.
  if (cfg.trials_per_point == 0) {
    throw std::invalid_argument("per_vs_snr: trials_per_point must be > 0");
  }
  itb::wifi::DsssTxConfig txcfg;
  txcfg.rate = cfg.rate;
  const itb::wifi::DsssTransmitter tx(txcfg);
  const itb::wifi::DsssReceiver rx;

  const std::size_t trials = cfg.trials_per_point;
  const std::size_t total = snr_grid_db.size() * trials;
  // One stage code per (point, trial); workers write disjoint slots, so
  // the aggregation below is independent of scheduling.
  std::vector<TrialStage> stage(total, TrialStage::kDecoded);

  std::optional<itb::channel::ImpairmentChain> chain;
  if (cfg.impairments) chain.emplace(*cfg.impairments);

  parallel_for(total, cfg.num_threads, [&](std::size_t idx) {
    // Trial-scope arena frame: impairment scratch (tap draws and the
    // convolution buffer) bumps into the worker's thread arena and is
    // rewound here, so steady-state sweeps stop hitting the heap for
    // per-trial intermediates.
    const ArenaFrame trial_scratch;
    const std::size_t point = idx / trials;
    const std::size_t trial = idx % trials;
    itb::dsp::Xoshiro256 rng(trial_seed(cfg.seed, point, trial));

    itb::phy::Bytes psdu(cfg.psdu_bytes);
    for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    auto frame = tx.modulate(psdu);
    // The chip stream occupies the full 22 MHz channel at 1 sample/chip,
    // so per-sample SNR equals channel SNR. Impairment randomness is keyed
    // on the trial's global index: independent of scheduling, and distinct
    // from the noise substream. Channel, noise and ADC all work on the one
    // trial buffer the baseband is moved into, and the receiver takes it.
    itb::dsp::CVec wave = std::move(frame.baseband);
    if (chain) chain->apply_channel_inplace(wave, cfg.seed, idx);
    itb::channel::add_noise_snr_inplace(wave, snr_grid_db[point], rng);
    if (chain) chain->apply_frontend_inplace(wave);
    const auto result = rx.receive(std::move(wave));
    stage[idx] = !result.has_value()  ? TrialStage::kNoSync
                 : !result->header_ok ? TrialStage::kHeaderFail
                 : result->psdu != psdu ? TrialStage::kPayloadFail
                                        : TrialStage::kDecoded;
  });

  std::vector<PerPoint> out;
  out.reserve(snr_grid_db.size());
  for (std::size_t point = 0; point < snr_grid_db.size(); ++point) {
    std::size_t count[4] = {0, 0, 0, 0};
    for (std::size_t t = 0; t < trials; ++t) {
      ++count[static_cast<std::size_t>(stage[point * trials + t])];
    }
    const std::size_t failures = trials - count[0];
    out.push_back({snr_grid_db[point],
                   static_cast<double>(failures) / static_cast<double>(trials),
                   itb::channel::per_80211b(cfg.rate, snr_grid_db[point],
                                            cfg.psdu_bytes),
                   trials, count[1], count[2], count[3]});
  }
  return out;
}

}  // namespace itb::core
