#include "mac/dcf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace itb::mac {

namespace {

// Victim-flow DCF timing (802.11g OFDM PHY) and frame.
constexpr Real kSlotUs = 9.0;
constexpr Real kSifsUs = 10.0;
constexpr Real kDifsUs = 28.0;
constexpr unsigned kCwMin = 15;
constexpr unsigned kCwMax = 1023;
constexpr std::size_t kFrameBytes = 1500;
/// Preamble + SIGNAL + SIFS+ACK equivalent.
constexpr Real kPhyOverheadUs = 26.0;
/// TCP efficiency factor applied to the MAC goodput (ACK return traffic,
/// TCP/IP headers): iperf reports ~0.85 of MAC-layer goodput.
constexpr Real kTcpEfficiency = 0.85;

/// Rate adaptation ladder. Consecutive losses step the PHY rate down one
/// notch (54 -> 48 -> 36 -> 24 ...), successes step it back up: the
/// paper's "default Wi-Fi rate adaptation". The flow starts at 36 Mbps.
constexpr std::array<Real, 8> kRateLadder = {6, 9, 12, 18, 24, 36, 48, 54};
constexpr std::size_t kInitialRateIdx = 5;
static_assert(kRateLadder[kInitialRateIdx] == 36.0);

/// Tag frame airtime: 96 us short sync/header + 32 B at 2 Mbps.
constexpr Real kInterfererPacketUs = 224.0;
/// Probability that an overlapping backscatter burst actually corrupts
/// the victim frame. Backscattered signals are weak (the mirror copy
/// arrives tens of dB below the AP's signal), so capture effect lets many
/// overlapped frames survive; 0.65 matches the paper's 2 ft tag-receiver
/// geometry against a 10 ft victim link (calibrated to Fig. 12).
constexpr Real kCorruptionProbability = 0.65;

}  // namespace

DcfResult simulate_dcf(const InterfererConfig& interferer, Real duration_s,
                       std::uint64_t seed) {
  // Domain-separated substream ("dcf"): the same experiment seed handed to
  // another module must not replay these arrival/backoff draws.
  itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed ^ 0x646366ULL));
  const Real duration_us = duration_s * 1e6;

  // Pre-draw interferer packet start times (Poisson arrivals).
  std::vector<std::pair<Real, Real>> bursts;  // (start, end)
  if (interferer.on_victim_channel && interferer.packets_per_second > 0.0) {
    const Real mean_gap_us = 1e6 / interferer.packets_per_second;
    Real t = rng.uniform() * mean_gap_us;
    while (t < duration_us) {
      bursts.emplace_back(t, t + kInterfererPacketUs);
      t += -mean_gap_us * std::log(std::max(rng.uniform(), 1e-12));
    }
  }
  std::size_t burst_cursor = 0;
  const auto overlaps_burst = [&](Real start, Real end) {
    while (burst_cursor < bursts.size() && bursts[burst_cursor].second < start) {
      ++burst_cursor;
    }
    return burst_cursor < bursts.size() && bursts[burst_cursor].first < end;
  };

  DcfResult out;
  Real now_us = 0.0;
  Real busy_us = 0.0;
  std::size_t rate_idx = kInitialRateIdx;
  unsigned cw = kCwMin;
  std::uint64_t bits_delivered = 0;
  unsigned consecutive_ok = 0;
  unsigned consecutive_fail = 0;
  constexpr unsigned kMaxRetries = 4;

  while (now_us < duration_us) {
    // One MSDU: transmit + up to kMaxRetries MAC retransmissions. The
    // tag is a hidden node (it cannot carrier-sense the victim flow), so a
    // retry collides whenever it overlaps a backscatter burst.
    bool delivered = false;
    for (unsigned attempt = 0; attempt <= kMaxRetries; ++attempt) {
      const Real backoff_slots = static_cast<Real>(rng.uniform_int(cw + 1));
      now_us += kDifsUs + backoff_slots * kSlotUs;
      if (now_us >= duration_us) break;

      const Real rate = kRateLadder[rate_idx];
      const Real frame_us =
          kPhyOverheadUs + static_cast<Real>(kFrameBytes) * 8.0 / rate +
          kSifsUs + 24.0;  // SIFS + ACK at base rate
      const Real start = now_us;
      const Real end = now_us + frame_us;
      const bool corrupted = overlaps_burst(start, end) &&
                             rng.uniform() < kCorruptionProbability;
      now_us = end;
      busy_us += frame_us;

      if (!corrupted) {
        delivered = true;
        cw = kCwMin;
        break;
      }
      ++out.frames_lost;  // counts corrupted attempts (airtime wasted)
      cw = std::min(cw * 2 + 1, kCwMax);
      // Minstrel-style adaptation: step down only after two consecutive
      // failed attempts, step back up after a streak of successes. Rates
      // below 12 Mbps are not probed — collision losses are rate-agnostic,
      // and real rate controllers detect that (avoids a death spiral where
      // longer frames collide even more).
      constexpr std::size_t kMinRateIdx = 2;  // 12 Mbps
      if (++consecutive_fail >= 2 && rate_idx > kMinRateIdx) {
        --rate_idx;
        consecutive_fail = 0;
      }
    }
    if (now_us >= duration_us) break;

    if (delivered) {
      ++out.frames_ok;
      bits_delivered += kFrameBytes * 8;
      consecutive_fail = 0;
      if (++consecutive_ok >= 10 && rate_idx + 1 < kRateLadder.size()) {
        ++rate_idx;
        consecutive_ok = 0;
      }
    } else {
      consecutive_ok = 0;
    }
  }

  const std::uint64_t total = out.frames_ok + out.frames_lost;
  out.collision_rate =
      total ? static_cast<Real>(out.frames_lost) / static_cast<Real>(total) : 0.0;
  out.throughput_mbps = kTcpEfficiency *
                        static_cast<Real>(bits_delivered) / duration_us;
  out.airtime_busy_fraction = busy_us / duration_us;
  return out;
}

}  // namespace itb::mac
