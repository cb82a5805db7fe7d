// Link-layer ARQ for interscatter uplinks: message framing, retransmission
// with capped exponential backoff and per-message retry budgets, and a
// rate-fallback ladder for graceful degradation.
//
// Why it exists: a failed channel::link draw used to be a lost reply —
// nothing retried, backed off, or degraded. Implanted fleets live with
// routine link death (tissue absorption, harvest starvation, AP outages,
// ISM jamming), so delivery has to be guaranteed by the link layer, not
// hoped for per poll.
//
// The network simulator drives every piece here per TDMA slot:
//   - kFragmentOverheadBytes: what the ARQ framing of a message costs on
//     air (the simulator draws attempt outcomes from the closed-form PER
//     at the framed size; no bytes are framed);
//   - ArqConfig + backoff_slots(): the retry policy, closed over small
//     integers;
//   - RateFallbackController: consecutive-failure downshift through the
//     DSSS ladder 11 -> 5.5 -> 2 -> 1 Mbps (optionally -> ZigBee O-QPSK
//     where the tag supports both waveforms), probing back up on success.
// The geometric-retry model 1 - (1-p)^n that the simulator's delivery ratio
// must match lives in resilience_test as a test oracle.
//
// Determinism: none of these types hold RNG state. All randomness stays in
// the caller (the network sim draws from per-(tag, round) substreams), so
// ARQ state evolution is a pure fold over attempt outcomes and the sharded
// digest contract of DESIGN.md survives.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wifi/rates.h"

namespace itb::mac {

// --- framing -----------------------------------------------------------------

/// On-air cost of ARQ framing beyond the payload: every message travels as
/// one fragment carrying the 3-byte header a tag would send (message seq,
/// fragment index, fragment count) plus its CRC-16.
constexpr std::size_t kFragmentOverheadBytes = 3 + 2;

// --- retry policy ------------------------------------------------------------

struct ArqConfig {
  /// Transmission attempts allowed per message, including the first.
  std::size_t max_attempts = 8;
  /// Total retransmissions allowed per message (the per-tag retry budget:
  /// energy, not just time, is finite).
  std::size_t retry_budget = 16;
  /// After the k-th consecutive failure the sender idles
  /// min(backoff_cap_slots, backoff_base_slots * 2^(k-1)) of its own TDMA
  /// slots before retrying — capped exponential backoff.
  std::size_t backoff_base_slots = 0;  ///< 0 = retry at the next slot
  std::size_t backoff_cap_slots = 8;

  /// Copy with degenerate values clamped (mirrors
  /// ReservationConfig::validated()): max_attempts >= 1, cap >= base.
  ArqConfig validated() const;
};

/// Slots to skip before the retry that follows `consecutive_failures`
/// (>= 1) failures: min(cap, base * 2^(failures-1)); 0 when base is 0.
std::size_t backoff_slots(const ArqConfig& cfg,
                          std::size_t consecutive_failures);

// --- rate / waveform fallback ------------------------------------------------

/// The graceful-degradation ladder, most to least fragile. The three CCK /
/// DQPSK DSSS downshifts trade throughput for SNR margin (~5.4 dB between
/// 11 and 2 Mbps, see channel::per_80211b); the final rung swaps waveform
/// entirely to 802.15.4 O-QPSK at 250 kbps, whose 32-chip spreading gains
/// another ~9 dB for tags that support both synthesizers.
enum class LinkWaveform : std::uint8_t {
  kWifi11Mbps = 0,
  kWifi5_5Mbps = 1,
  kWifi2Mbps = 2,
  kWifi1Mbps = 3,
  kZigbee = 4,
};
constexpr std::size_t kNumLinkWaveforms = 5;

const char* waveform_name(LinkWaveform w);
constexpr bool is_wifi(LinkWaveform w) { return w != LinkWaveform::kZigbee; }
/// DSSS rate of a Wi-Fi rung; kZigbee maps to k1Mbps for callers that need
/// a DSSS rate proxy (e.g. the IC power model's baseband clock scaling).
itb::wifi::DsssRate waveform_rate(LinkWaveform w);
LinkWaveform waveform_for_rate(itb::wifi::DsssRate rate);
/// Reply airtime of `psdu_bytes` at rung `w`: 802.11b long-preamble frame
/// for the Wi-Fi rungs, 802.15.4 SHR+PHR+PSDU at 250 kbps for kZigbee.
double waveform_airtime_us(LinkWaveform w, std::size_t psdu_bytes);

struct FallbackConfig {
  bool enable_rate_fallback = false;
  /// Allow the final Wi-Fi -> ZigBee waveform swap (tag has both synths).
  bool enable_zigbee_fallback = false;
  /// Consecutive failed attempts before stepping one rung down.
  std::size_t down_after_failures = 2;
  /// Consecutive delivered attempts before probing one rung back up.
  std::size_t up_after_successes = 8;

  /// Copy with zero thresholds clamped to 1 (a zero threshold would
  /// downshift on success paths / upshift forever).
  FallbackConfig validated() const;
};

/// The rungs a RateFallbackController can ever occupy, in ladder order:
/// from `top` (its initial rung; it never climbs above it) down to `floor`.
struct RungRange {
  LinkWaveform top = LinkWaveform::kWifi2Mbps;
  LinkWaveform floor = LinkWaveform::kWifi2Mbps;
};

/// The one range rule: a controller built from (cfg, initial) reaches
/// [initial, floor], where the floor is `initial` without rate fallback,
/// 1 Mbps without the ZigBee swap, and ZigBee otherwise (never above
/// `initial`). The controller steps down only to this floor, and the
/// network simulator's link build evaluates PERs only inside the range.
RungRange reachable_rungs(const FallbackConfig& cfg, LinkWaveform initial);

/// Per-tag fallback state machine. Holds no RNG; feed it attempt outcomes.
/// Stays inside reachable_rungs(cfg, initial).
class RateFallbackController {
 public:
  RateFallbackController() = default;
  RateFallbackController(const FallbackConfig& cfg, LinkWaveform initial);

  LinkWaveform current() const { return current_; }
  bool degraded() const { return current_ != range_.top; }

  void on_success();
  void on_failure();

  std::uint64_t downshifts() const { return downshifts_; }
  std::uint64_t upshifts() const { return upshifts_; }

 private:
  FallbackConfig cfg_{};
  RungRange range_{};
  LinkWaveform current_ = LinkWaveform::kWifi2Mbps;
  std::size_t fail_streak_ = 0;
  std::size_t success_streak_ = 0;
  std::uint64_t downshifts_ = 0;
  std::uint64_t upshifts_ = 0;
};

}  // namespace itb::mac
