// Deterministic fault injection for the multi-tag network simulator.
//
// A FaultSchedule is a plain list of typed, time-windowed fault events —
// AP outage/restart, per-channel interference bursts, tag harvest
// brownouts, and fleet-wide SNR slumps. Schedules are either hand-built
// (golden tests, demo scenarios: "midnight AP reboot", "microwave oven")
// or generated from a FaultProfile, where every event is drawn from a
// per-entity counter-based RNG substream (entity_stream, the same
// trial_seed mix as the Monte-Carlo engine) so a schedule is a pure
// function of (profile, fleet shape, seed) — never of thread count or
// iteration order.
//
// The simulator consumes a compiled FaultTimeline: immutable per-entity
// interval lists built once before the parallel shard fan-out. Every
// query the run loop makes (`ap_down(ap, t)`, `channel_noise_rise_db(g,
// t)`, ...) is a pure function of entity and simulated time, which is what
// keeps the sharded bit-identical digest contract of DESIGN.md intact:
// faults change *which* outcome a poll resolves to, never the order or
// identity of the RNG draws behind it.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/types.h"

namespace itb::sim {

using itb::dsp::Real;

enum class FaultKind : std::uint8_t {
  /// AP powered off for the window; its tags are orphaned until restart.
  /// entity = AP index.
  kApOutage = 0,
  /// In-band interferer (e.g. microwave oven) on one Wi-Fi channel:
  /// raises the noise floor by magnitude_db and occupies the channel
  /// (CCA busy) for a duty cycle derived from the same magnitude.
  /// entity = Wi-Fi channel *number* (1..14, as in NetworkConfig).
  kInterference = 1,
  /// Tag harvest brownout: the IC's storage cap sags below the logic
  /// retention voltage (backscatter::IcPowerModel territory), so the tag
  /// neither decodes queries nor replies. entity = tag id.
  kBrownout = 2,
  /// Transient fleet-wide SNR slump of magnitude_db (e.g. body movement
  /// re-orienting every implant antenna at once). entity ignored.
  kSnrSlump = 3,
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kApOutage: return "ap_outage";
    case FaultKind::kInterference: return "interference";
    case FaultKind::kBrownout: return "brownout";
    case FaultKind::kSnrSlump: return "snr_slump";
  }
  return "?";
}

struct FaultEvent {
  FaultKind kind = FaultKind::kSnrSlump;
  std::uint32_t entity = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
  Real magnitude_db = 0.0;  ///< noise rise / slump depth; unused for outages
  double end_us() const { return start_us + duration_us; }
};

/// Builder-style container so scenarios read declaratively.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  FaultSchedule& ap_outage(std::uint32_t ap, double start_us,
                           double duration_us);
  FaultSchedule& interference(unsigned wifi_channel, double start_us,
                              double duration_us, Real noise_rise_db);
  FaultSchedule& brownout(std::uint32_t tag, double start_us,
                          double duration_us);
  FaultSchedule& snr_slump(double start_us, double duration_us, Real depth_db);

  bool empty() const { return events.empty(); }
};

/// Stochastic fault mix over a horizon. Rates are expected event counts
/// per entity over the whole horizon (not per second), so a profile reads
/// as "each AP fails about once, each channel sees ~2 bursts".
struct FaultProfile {
  double horizon_us = 0.0;  ///< events are drawn in [0, horizon_us)

  double outages_per_ap = 0.0;
  double outage_mean_us = 2e6;

  double bursts_per_channel = 0.0;
  double burst_mean_us = 5e5;
  Real burst_rise_db = 20.0;

  double brownouts_per_tag = 0.0;
  double brownout_mean_us = 1e5;

  double snr_slumps = 0.0;
  double slump_mean_us = 2e5;
  Real slump_depth_db = 6.0;
};

/// Draws a schedule from the profile. Each entity's events come from its
/// own counter-based substream; durations are exponential with the
/// configured mean. Deterministic: same (profile, shape, seed) -> same
/// schedule, independent of anything else the caller has drawn.
FaultSchedule generate_fault_schedule(const FaultProfile& profile,
                                      std::size_t num_aps,
                                      const std::vector<unsigned>& wifi_channels,
                                      std::size_t num_tags, std::uint64_t seed);

/// Immutable compiled form: per-entity interval lists with O(active
/// events) point queries. Built once before the parallel phase.
class FaultTimeline {
 public:
  FaultTimeline() = default;
  FaultTimeline(const FaultSchedule& schedule, std::size_t num_aps,
                const std::vector<unsigned>& wifi_channels,
                std::size_t num_tags);

  bool any() const { return any_; }

  bool ap_down(std::uint32_t ap, double t_us) const;
  bool tag_browned_out(std::uint32_t tag, double t_us) const;

  /// Noise-floor rise (dB) on FDMA group `group` at time t: active
  /// interference bursts on its channel plus fleet-wide SNR slumps. The
  /// magnitudes of simultaneously-active events add in dB (conservative;
  /// overlapping bursts are rare and the golden tests pin the
  /// single-burst case).
  Real channel_noise_rise_db(std::size_t group, double t_us) const;

  /// Extra CCA busy probability the interferer contributes on `group` at
  /// time t: 1 - exp(-rise_db / 10), a saturating duty-cycle map (20 dB
  /// burst -> ~0.86 busy, 6 dB -> ~0.45, 0 -> 0). Only interference
  /// bursts occupy the channel; SNR slumps degrade links without keeping
  /// CCA busy.
  Real channel_busy_boost(std::size_t group, double t_us) const;

 private:
  struct Interval {
    double start_us;
    double end_us;
    Real magnitude_db;
  };
  static bool active(const std::vector<Interval>& v, double t_us);
  static Real active_db(const std::vector<Interval>& v, double t_us);

  bool any_ = false;
  std::vector<std::vector<Interval>> ap_;       ///< per AP index
  std::vector<std::vector<Interval>> channel_;  ///< per FDMA group index
  std::vector<std::vector<Interval>> tag_;      ///< per tag id
  std::vector<Interval> slumps_;                ///< fleet-wide SNR slumps
};

}  // namespace itb::sim
