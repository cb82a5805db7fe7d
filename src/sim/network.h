// NetworkCoordinator: composes the repo's per-link primitives into a
// network-level simulation of a fleet of interscatter implants (paper §2.5
// scaled up: the paper coordinates "multiple" tags; the roadmap wants
// thousands).
//
// Coordination model:
//   FDMA — tags are partitioned into groups, one per configured Wi-Fi
//     channel; each group's replies land on its own 802.11b channel (the
//     tag's SSB shift selects the channel, paper §2.3.2). Groups run
//     concurrent, independent TDMA timelines.
//   TDMA — inside a group, the AP round-robin polls its tags over the
//     OFDM-AM downlink (mac/query_reply slot arithmetic); the addressed
//     tag replies during the next advertising window.
//   Reservation — each reply's collision/silence outcome follows the
//     closed-form mac::reservation_outcome() for the configured scheme.
//   Cross-channel leakage — single-sideband backscatter suppresses, but
//     does not eliminate, the mirror sideband (paper Fig. 6/12). A group's
//     mirror lands at 2*f_ble - f_wifi; where that falls inside another
//     group's channel, the victim sees a deterministic noise-floor rise
//     proportional to the aggressor's airtime occupancy, degrading its
//     reply SNR and raising its busy probability.
//
// Resilience (ISSUE 6): the coordinator optionally layers
//   Faults — a compiled sim::FaultTimeline gates every poll: AP outages
//     orphan tags (or divert them to a precomputed failover AP),
//     interference bursts raise the victim channel's noise floor and CCA
//     busy probability, brownouts power tags off, SNR slumps degrade every
//     reply. Fault gating is slot-atomic: the AP/brownout state sampled at
//     query time holds for the whole poll.
//   ARQ — mac/arq retransmission: each message travels as one fragment
//     that pays mac::kFragmentOverheadBytes (5 B of header and CRC) on air
//     on top of its payload, and retries up to max_attempts with capped
//     exponential backoff (idled TDMA slots), bounded by a per-message
//     retransmission budget. Without ARQ every poll is a one-shot message
//     of the bare payload.
//   Fallback — a per-tag mac::RateFallbackController walks the DSSS ladder
//     (optionally into ZigBee) on consecutive decode failures/collisions
//     and probes back up on success; attempt airtime, PER, and IC energy
//     all follow the active rung.
//
// Fidelity: every link outcome is drawn at *budget level* (channel/link.h
// closed forms for an ideal radio), so 5000 tags simulate in seconds. The
// RF impairment presets exist only on the waveform path: no closed-form
// SNR penalty reproduces the shifts and error floors they cause there
// (DESIGN.md "RF impairment chain"). Where the closed forms meet the
// waveform PHY is checked per link, not per fleet: the budget-vs-waveform
// cross-checks in tests/core_test.cpp, and tests/sim_test.cpp checks that
// every stored link SNR is channel::backscatter_rssi() at the tag's
// clamped distances.
//
// Determinism: see DESIGN.md "Network simulator determinism" and "Fault
// model and recovery determinism". Shards are a fixed partition of the tag
// list (independent of thread count), each shard walks its polls in their
// closed-form time order (round, slot, then the slot's reply, which lands
// before the next query), every stochastic decision draws from an
// entity_stream() substream keyed by (tag, round), the fault timeline is
// immutable and queried as a pure function of (entity, time), ARQ/fallback state is a pure fold over one
// tag's own attempt outcomes, and the final reduction merges per-shard
// blocks in shard-index order — so run() is bit-identical at any thread
// count (asserted in tests/sim_test.cpp and tests/resilience_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "channel/link.h"
#include "mac/arq.h"
#include "mac/query_reply.h"
#include "mac/reservation.h"
#include "sim/faults.h"
#include "sim/stats.h"
#include "sim/topology.h"
#include "wifi/rates.h"

namespace itb::obs {
struct RunCapture;
}  // namespace itb::obs

namespace itb::sim {

struct NetworkConfig {
  TopologyConfig topology{};
  /// FDMA groups: one tag group per listed 2.4 GHz Wi-Fi channel.
  std::vector<unsigned> wifi_channels = {1, 6, 11};
  /// BLE advertising channel of the helpers driving the tags (the SSB shift
  /// for each group is wifi_channel_hz - ble_channel_hz).
  unsigned ble_channel = 38;
  itb::wifi::DsssRate rate = itb::wifi::DsssRate::k2Mbps;
  std::size_t payload_bytes = 30;
  /// TDMA polling rounds per group: each round polls every tag once.
  std::size_t rounds = 8;
  mac::PollingConfig polling{};
  mac::ReservationScheme reservation = mac::ReservationScheme::kDataAsRts;
  /// Ambient (non-backscatter) Wi-Fi load on every channel.
  Real ambient_busy_probability = 0.1;
  Real cts_detection_probability = 0.95;
  /// How much the tag's SSB suppresses the mirror sideband (paper measures
  /// ~20 dB; Fig. 6).
  Real ssb_sideband_suppression_db = 20.0;
  // --- link budget inputs (shared with channel/link.h) -----------------
  Real ble_tx_power_dbm = 10.0;
  Real pathloss_exponent = 2.2;
  Real rx_noise_figure_db = 6.0;
  Real tag_medium_loss_db = 3.0;  ///< implanted: one-way tissue loss
  /// Tag peak-detector sensitivity for the downlink (paper: -32 dBm).
  Real detector_sensitivity_dbm = -32.0;
  // --- resilience ------------------------------------------------------
  /// Injected fault events (empty = fault-free). Hand-built via the
  /// FaultSchedule builder or drawn with generate_fault_schedule().
  FaultSchedule faults{};
  /// Link-layer ARQ: framed messages + retries. Off, every poll is a
  /// one-shot message (failed poll = dropped message).
  bool enable_arq = false;
  mac::ArqConfig arq{};
  /// Graceful-degradation ladder (enabled inside FallbackConfig).
  mac::FallbackConfig fallback{};
  /// Reassign tags of a downed AP to their precomputed next-nearest live
  /// AP instead of skipping their polls.
  bool ap_failover = false;
  // --- execution -------------------------------------------------------
  std::uint64_t seed = 1;
  /// Worker threads for the shard fan-out; 0 = all hardware threads.
  /// Never affects results, only wall time.
  std::size_t num_threads = 1;
  /// Tags per shard. Part of the *result identity* (fixed partition), so it
  /// is a config knob and never derived from num_threads.
  std::size_t shard_tags = 256;
  /// Also return every tag's TagStats in NetworkStats::per_tag (O(tags)
  /// memory). Only adds the per-tag records; the fleet totals are the
  /// same either way.
  bool keep_per_tag = true;
};

/// Precomputed per-tag link state (pure function of config + topology).
struct TagLink {
  std::uint32_t helper = 0;  ///< nearest BLE helper
  std::uint32_t ap = 0;      ///< nearest AP (receives this group's replies)
  unsigned wifi_channel = 0;
  Real reply_rssi_dbm = 0.0;  ///< budget-level reply RSSI at the AP
  Real snr_db = 0.0;          ///< reply SNR before leakage noise rise
  Real downlink_miss_prob = 0.0;
  Real reply_per = 0.0;       ///< PER at the leakage-degraded SNR
  /// Budget declared the link dead (channel::backscatter_rssi guard):
  /// polls resolve to PollOutcome::kLinkDown without drawing.
  bool link_down = false;
  /// PER per fallback rung at the leakage-degraded SNR and the effective
  /// wire size (ARQ framing included when enabled). Indexed by
  /// mac::LinkWaveform; [waveform_for_rate(cfg.rate)] is the rung polls
  /// start at. Only the rungs in mac::reachable_rungs(cfg.fallback,
  /// waveform_for_rate(cfg.rate)) are evaluated, since no poll can reach
  /// the others; those hold 1.0, as failover_waveform_per does for a tag
  /// without failover.
  std::array<Real, mac::kNumLinkWaveforms> waveform_per{};
  // --- AP failover (nearest AP other than `ap`, used when it is down) --
  bool has_failover = false;
  std::uint32_t failover_ap = 0;
  Real failover_snr_db = itb::channel::kLinkDownDb;
  Real failover_downlink_miss_prob = 1.0;
  /// waveform_per at failover_snr_db, same rung range; all 1.0 without
  /// failover.
  std::array<Real, mac::kNumLinkWaveforms> failover_waveform_per{};
};

class NetworkCoordinator {
 public:
  explicit NetworkCoordinator(const NetworkConfig& cfg);

  /// Runs the full FDMA x TDMA simulation. Bit-identical for a fixed config
  /// at any num_threads.
  ///
  /// `capture` (optional) attaches the obs layer: sim-time trace events
  /// and a metrics snapshot, both collected per shard and merged in
  /// shard-index order, so they inherit the same thread-count-invariance
  /// as the stats themselves (tests/obs_test.cpp). Null = no observation
  /// work beyond one branch per hook.
  NetworkStats run(obs::RunCapture* capture = nullptr) const;

  // Introspection (tests, benches, examples).
  const NetworkConfig& config() const { return cfg_; }
  const std::vector<TagLink>& links() const { return links_; }
  const std::vector<ChannelStats>& channel_plan() const { return channels_; }
  /// Bytes each attempt puts on the air: payload_bytes, plus
  /// mac::kFragmentOverheadBytes of framing with ARQ.
  std::size_t wire_bytes() const { return wire_bytes_; }

 private:
  NetworkConfig cfg_;
  Placement placement_;
  std::vector<TagLink> links_;          ///< indexed by tag id
  std::vector<ChannelStats> channels_;  ///< per FDMA group (plan-time fields)
  /// Tag ids grouped by FDMA channel, each group in ascending id order;
  /// a tag's TDMA slot is its position in its group.
  std::vector<std::vector<std::uint32_t>> group_tags_;
  FaultTimeline timeline_;  ///< compiled faults; immutable during run()
  std::size_t wire_bytes_ = 0;
};

}  // namespace itb::sim
