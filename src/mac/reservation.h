// Channel-reservation strategies for collision-free backscatter
// (paper §2.3.3, optimizations 1-3):
//   1. CTS-to-Self scheduled by the helper device's own Wi-Fi radio before
//      the BLE packet (needs driver/firmware coordination).
//   2. Tag-initiated RTS on the channel-37 advertisement; the Wi-Fi device
//      answers CTS, reserving 2*dT + T_bluetooth for the channel 38/39
//      advertisements (dT is the advertiser's inter-channel gap, ~400 us on
//      TI chipsets, and T_bluetooth the advertising packet's airtime).
//   3. Data-as-RTS: the first backscattered packet carries data; its
//      CTS-to-Self response reserves the rest of the event.
//
// Both evaluators model one advertising event as three slots and never
// need the event's absolute timing, so the config carries none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "dsp/types.h"

namespace itb::mac {

using itb::dsp::Real;

/// Airtime of a 47-byte BLE advertising packet at 1 Mbps. A helper repeats
/// it on the three advertising channels every interval, illuminating (and
/// powering) the tags in range; an RTS scheme spends one on control.
inline constexpr Real kAdvPacketUs = 376.0;

enum class ReservationScheme {
  kNone,
  kCtsToSelf,   ///< optimization 1
  kTagRts,      ///< optimization 2
  kDataAsRts,   ///< optimization 3
};

struct ReservationConfig {
  ReservationScheme scheme = ReservationScheme::kNone;
  /// Probability that the Wi-Fi channel is busy at any instant (ambient load).
  /// Values outside [0, 1] are clamped by the evaluators (NaN -> 0).
  Real channel_busy_probability = 0.3;
  /// Probability the tag's peak detector sees the CTS (RTS schemes).
  /// Values outside [0, 1] are clamped by the evaluators (NaN -> 0).
  Real cts_detection_probability = 0.95;

  /// Copy of this config with both probabilities clamped into [0, 1].
  /// Out-of-range inputs would otherwise silently produce negative clean
  /// transmission counts / collision fractions above 1.
  ReservationConfig validated() const;
};
// validated() copies the config on every reservation_outcome() call, so it
// must stay a plain value: no vector or string field.
static_assert(std::is_trivially_copyable_v<ReservationConfig>);

/// Closed-form per-opportunity outcome of a reservation scheme over one
/// advertising event (three advertisements on channels 37/38/39). The
/// Monte-Carlo evaluate_reservation() must agree with these in expectation
/// (asserted in tests); the network simulator uses them directly so that a
/// polled reply costs O(1) instead of a per-event Monte-Carlo loop.
struct ReservationOutcome {
  /// Of the three advertisements, how many can carry backscatter data
  /// (kTagRts burns channel 37 on the RTS).
  Real data_slots_per_event = 3.0;
  /// Per data slot: delivered without colliding with ambient traffic.
  Real p_clean = 0.0;
  /// Per data slot: transmitted but collided.
  Real p_collision = 0.0;
  /// Per data slot: tag stayed silent (reservation not granted).
  Real p_silent = 0.0;
  /// Tag airtime spent on control rather than data, us per event.
  Real control_overhead_us = 0.0;
};
ReservationOutcome reservation_outcome(const ReservationConfig& cfg);

struct ReservationResult {
  /// Per advertising event: how many of the (up to 3) backscatter
  /// opportunities were collision-free.
  Real clean_transmissions_per_event = 0.0;
  /// Fraction of backscattered packets that collided with ambient traffic.
  Real collision_fraction = 0.0;
  /// Extra tag airtime spent on control (RTS) rather than data, us/event.
  Real control_overhead_us = 0.0;
};

/// Monte-Carlo evaluation of a reservation scheme over `events` advertising
/// events.
ReservationResult evaluate_reservation(const ReservationConfig& cfg,
                                       std::size_t events, std::uint64_t seed);

}  // namespace itb::mac
