// Aggregate statistics emitted by the network simulator.
//
// Each shard writes its tags' TagStats into shard-local slots and folds
// them, in slot order, into one reduction block; one thread then merges the
// blocks in shard-index order. That single summation order makes the merged
// NetworkStats bit-identical at any thread count, and the fleet totals the
// same whether or not the per-tag records are kept. digest() condenses the
// full result (including every per-tag counter and double bit pattern) into
// one FNV-1a hash, which the determinism tests compare across thread
// counts.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dsp/types.h"

namespace itb::sim {

using itb::dsp::Real;

/// Fixed-bin log-spaced latency histogram (50 us .. ~5000 s). Fixed edges
/// make quantiles a pure function of the counts, so they are deterministic
/// under any accumulation order.
struct LatencyHistogram {
  static constexpr std::size_t kBins = 64;
  /// Bin b spans [kFloorUs * kGrowth^b, kFloorUs * kGrowth^(b+1)).
  static constexpr double kFloorUs = 50.0;
  static constexpr double kGrowth = 1.333521432163324;  // 8 bins per decade

  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t total = 0;
  double sum_us = 0.0;
  double max_us = 0.0;

  static std::size_t bin_for(double us);
  /// Upper edge of bin b (us).
  static double bin_upper_us(std::size_t b);

  void record(double us);
  void merge(const LatencyHistogram& other);
  /// Upper edge of the bin holding the q-quantile sample (q in [0, 1]);
  /// q = 0 is the lowest sample's bin. 0 when empty.
  double quantile_us(double q) const;
};

/// Attempts-per-delivered-message histogram. Bin b counts messages that
/// needed b+1 transmission attempts; the last bin absorbs the tail.
struct RetryHistogram {
  static constexpr std::size_t kBins = 9;  ///< 1..8 attempts, 9+ in the tail

  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum_attempts = 0;

  void record(std::size_t attempts);
  void merge(const RetryHistogram& other);
  double mean_attempts() const;
};

/// How one TDMA poll slot resolved. Each poll trace event is named after
/// its outcome (poll_outcome_name).
enum class PollOutcome : std::uint8_t {
  kDelivered = 0,         ///< reply decoded at the AP
  kDownlinkMiss = 1,      ///< tag never heard the query
  kReservationDenied = 2, ///< tag stayed silent (reservation not granted)
  kCollision = 3,
  kDecodeFailure = 4,
  kBackoff = 5,           ///< tag idled the slot (ARQ exponential backoff)
  kBrownout = 6,          ///< harvest brownout: tag unpowered
  kApOutage = 7,          ///< AP down and no live failover target
  kLinkDown = 8,          ///< budget declared the link dead (channel::link)
};
const char* poll_outcome_name(PollOutcome o);

/// The per-tag poll counters, declared once. TagStats (one tag),
/// NetworkStats (the fleet) and the simulator's per-shard reduction block
/// all inherit these fields, and every fold, merge and metrics export loops
/// over kPollCounters instead of naming them. Adding a counter is one field
/// here plus one row there, and a decision about whether NetworkStats::
/// digest() hashes it.
struct PollCounters {
  std::uint64_t queries_sent = 0;        ///< polls addressed to the tag
  std::uint64_t replies_received = 0;    ///< successfully decoded replies
  std::uint64_t downlink_misses = 0;     ///< tag never heard the query
  std::uint64_t reservation_denied = 0;  ///< stayed silent (RTS not granted)
  std::uint64_t collisions = 0;
  std::uint64_t decode_failures = 0;
  // --- resilience (ARQ / faults / fallback) ---------------------------
  std::uint64_t retransmissions = 0;
  std::uint64_t backoff_skips = 0;       ///< slots idled by ARQ backoff
  std::uint64_t messages_delivered = 0;  ///< message decoded at the AP
  std::uint64_t messages_dropped = 0;    ///< retry budget / attempts exhausted
  std::uint64_t rate_downshifts = 0;
  std::uint64_t rate_upshifts = 0;
  std::uint64_t brownout_skips = 0;   ///< slots lost to harvest brownouts
  std::uint64_t outage_skips = 0;     ///< slots lost to AP outage (no failover)
  std::uint64_t failover_polls = 0;   ///< polls served by the backup AP
  std::uint64_t link_down_polls = 0;  ///< polls refused: budget declared link dead
  std::uint64_t messages_offered = 0;  ///< delivered + dropped + in flight
  std::uint64_t fallback_polls = 0;    ///< attempts below the configured rate
};

struct PollCounterRow {
  std::uint64_t PollCounters::*field;
  const char* metric;  ///< obs counter name; nullptr = not exported
};

/// One row per PollCounters field. Rows run in metrics-registration order,
/// which the pinned metrics digest freezes; unexported counters go last.
inline constexpr std::array<PollCounterRow, 18> kPollCounters = {{
    {&PollCounters::queries_sent, "itb.sim.polls_total"},
    {&PollCounters::replies_received, "itb.sim.replies_total"},
    {&PollCounters::downlink_misses, "itb.sim.downlink_misses"},
    {&PollCounters::reservation_denied, "itb.sim.reservation_denied"},
    {&PollCounters::collisions, "itb.sim.collisions"},
    {&PollCounters::decode_failures, "itb.sim.decode_failures"},
    {&PollCounters::retransmissions, "itb.arq.retries"},
    {&PollCounters::backoff_skips, "itb.arq.backoff_slots"},
    {&PollCounters::messages_delivered, "itb.arq.messages_delivered"},
    {&PollCounters::messages_dropped, "itb.arq.messages_dropped"},
    {&PollCounters::rate_downshifts, "itb.rate.downshifts"},
    {&PollCounters::rate_upshifts, "itb.rate.upshifts"},
    {&PollCounters::brownout_skips, "itb.faults.brownout_skips"},
    {&PollCounters::outage_skips, "itb.faults.outage_skips"},
    {&PollCounters::failover_polls, "itb.faults.failover_polls"},
    {&PollCounters::link_down_polls, "itb.faults.link_down_polls"},
    {&PollCounters::messages_offered, nullptr},
    {&PollCounters::fallback_polls, nullptr},
}};
static_assert(sizeof(PollCounters) ==
                  kPollCounters.size() * sizeof(std::uint64_t),
              "every PollCounters field needs a kPollCounters row");

/// Adds every counter of `b` to `a`.
inline PollCounters& operator+=(PollCounters& a, const PollCounters& b) {
  for (const PollCounterRow& row : kPollCounters) a.*row.field += b.*row.field;
  return a;
}

/// Per-tag accounting, written by exactly one shard (disjoint slots).
struct TagStats : PollCounters {
  std::uint32_t tag_id = 0;
  unsigned wifi_channel = 0;      ///< FDMA group the tag replies on
  std::uint32_t helper = 0;       ///< nearest BLE helper index
  std::uint32_t ap = 0;           ///< nearest same-channel AP index
  double payload_bits = 0.0;
  double airtime_us = 0.0;   ///< tag transmit airtime (data + control)
  double harvest_us = 0.0;   ///< time illuminated by helper/AP carriers
  double snr_db = 0.0;       ///< budget-level reply SNR (after leakage rise)
  double reply_per = 0.0;    ///< closed-form PER at that SNR
  double tx_energy_nj = 0.0;  ///< transmit energy over all attempts (IC model)
};

/// Per-Wi-Fi-channel (FDMA group) accounting.
struct ChannelStats {
  unsigned wifi_channel = 0;
  std::size_t tags = 0;
  double occupancy = 0.0;  ///< fraction of sim time replies occupy the air
  /// Noise-floor rise (dB) from other groups' SSB mirror leakage.
  double leakage_noise_rise_db = 0.0;
  double busy_probability = 0.0;  ///< ambient + leakage, used by reservation
  std::uint64_t replies = 0;
  std::uint64_t collisions = 0;
  double elapsed_us = 0.0;  ///< this group's TDMA timeline length
};

/// Fleet totals: the PollCounters fields sum every tag's counters.
struct NetworkStats : PollCounters {
  std::size_t num_tags = 0;
  std::size_t num_channels = 0;
  double elapsed_us = 0.0;  ///< max over channel timelines
  double aggregate_goodput_kbps = 0.0;
  double mean_tag_goodput_kbps = 0.0;
  LatencyHistogram query_latency;
  /// Mean fraction of time a tag spends backscattering.
  double mean_airtime_duty = 0.0;
  /// Mean fraction of time a tag is illuminated by a carrier it can harvest.
  double mean_harvest_duty = 0.0;
  /// Mean tag power draw at its duty cycle (uW), via IcPowerModel.
  double mean_tag_power_uw = 0.0;
  // --- resilience -----------------------------------------------------
  /// delivered / (delivered + dropped): messages still in flight when the
  /// run ends are censored, not counted against the link layer. 1.0 when
  /// nothing completed.
  double delivery_ratio = 1.0;
  RetryHistogram retry_histogram;
  /// Time from a tag's first failed/skipped poll to its next successful
  /// delivery — how long disruptions (faults, deep fades) take to heal.
  LatencyHistogram recovery_time;
  /// Transmit energy per delivered payload byte, nJ (0 when nothing was
  /// delivered). Retries and fallback rungs pay real energy here.
  double energy_per_delivered_byte_nj = 0.0;
  std::vector<ChannelStats> channels;
  std::vector<TagStats> per_tag;  ///< empty when NetworkConfig::keep_per_tag off

  /// FNV-1a hash over every field (doubles by bit pattern, vectors in
  /// index order), in a frozen order that pinned digests depend on. Two
  /// runs are bit-identical iff their digests match.
  /// The fleet-level rate_downshifts/rate_upshifts are the one exception:
  /// they were added after the pins were recorded, and they are plain sums
  /// of the per-tag shift counts, which the per-tag records (hashed when
  /// keep_per_tag is on) already carry.
  std::uint64_t digest() const;
};

}  // namespace itb::sim
