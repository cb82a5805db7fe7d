#include "mac/reservation.h"

#include <algorithm>
#include <cmath>

#include "dsp/rng.h"

namespace itb::mac {

namespace {

Real clamp_probability(Real p) {
  if (std::isnan(p)) return 0.0;
  return std::clamp(p, Real{0.0}, Real{1.0});
}

}  // namespace

ReservationConfig ReservationConfig::validated() const {
  ReservationConfig out = *this;
  out.channel_busy_probability = clamp_probability(channel_busy_probability);
  out.cts_detection_probability = clamp_probability(cts_detection_probability);
  return out;
}

ReservationOutcome reservation_outcome(const ReservationConfig& raw) {
  const ReservationConfig cfg = raw.validated();
  const Real busy = cfg.channel_busy_probability;
  const Real cts = cfg.cts_detection_probability;
  ReservationOutcome out;
  switch (cfg.scheme) {
    case ReservationScheme::kNone:
      // Every advertisement carries data and independently risks collision.
      out.data_slots_per_event = 3.0;
      out.p_clean = 1.0 - busy;
      out.p_collision = busy;
      out.p_silent = 0.0;
      break;
    case ReservationScheme::kCtsToSelf:
      // The helper's own radio reserves the channel for the whole event.
      out.data_slots_per_event = 3.0;
      out.p_clean = 1.0;
      out.p_collision = 0.0;
      out.p_silent = 0.0;
      break;
    case ReservationScheme::kTagRts:
      // Channel 37 carries the RTS (control, no data); 38/39 carry data only
      // if the channel was free and the CTS was detected, else the tag stays
      // quiet for the rest of the event.
      out.data_slots_per_event = 2.0;
      out.p_clean = (1.0 - busy) * cts;
      out.p_collision = 0.0;
      out.p_silent = 1.0 - out.p_clean;
      out.control_overhead_us = kAdvPacketUs;
      break;
    case ReservationScheme::kDataAsRts:
      // Slot 1 carries data and doubles as the RTS: clean w.p. (1-busy),
      // collided w.p. busy. Slots 2 and 3 transmit only if slot 1 was clean
      // and the CTS was seen, and are then protected. Averaged per slot:
      out.data_slots_per_event = 3.0;
      out.p_clean = (1.0 - busy) * (1.0 + 2.0 * cts) / 3.0;
      out.p_collision = busy / 3.0;
      out.p_silent = 1.0 - out.p_clean - out.p_collision;
      break;
  }
  return out;
}

ReservationResult evaluate_reservation(const ReservationConfig& raw,
                                       std::size_t events, std::uint64_t seed) {
  const ReservationConfig cfg = raw.validated();
  // Domain-separated substream ("resv"); see DESIGN.md determinism rules.
  itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed ^ 0x72657376ULL));
  ReservationResult out;

  double clean_total = 0.0;
  double collided = 0.0;
  double transmitted = 0.0;
  double control_us = 0.0;

  for (std::size_t ev = 0; ev < events; ++ev) {
    // Three advertisements per event: channels 37, 38, 39.
    switch (cfg.scheme) {
      case ReservationScheme::kNone: {
        // Each backscatter attempt independently risks collision.
        for (int k = 0; k < 3; ++k) {
          transmitted += 1.0;
          if (rng.uniform() < cfg.channel_busy_probability) {
            collided += 1.0;
          } else {
            clean_total += 1.0;
          }
        }
        break;
      }
      case ReservationScheme::kCtsToSelf: {
        // The helper's radio reserves the channel for the whole event.
        for (int k = 0; k < 3; ++k) {
          transmitted += 1.0;
          clean_total += 1.0;
        }
        break;
      }
      case ReservationScheme::kTagRts: {
        // Advertisement on 37 carries the RTS (no data). If the channel is
        // free and the CTS is detected, 38/39 are protected.
        control_us += kAdvPacketUs;
        const bool channel_free = rng.uniform() >= cfg.channel_busy_probability;
        const bool cts_seen = rng.uniform() < cfg.cts_detection_probability;
        if (channel_free && cts_seen) {
          for (int k = 0; k < 2; ++k) {
            transmitted += 1.0;
            clean_total += 1.0;
          }
        } else {
          // Tag stays quiet for the rest of the event: no collision, but no
          // data either.
        }
        break;
      }
      case ReservationScheme::kDataAsRts: {
        // First packet carries data and doubles as the RTS.
        transmitted += 1.0;
        const bool first_clean = rng.uniform() >= cfg.channel_busy_probability;
        if (first_clean) {
          clean_total += 1.0;
          if (rng.uniform() < cfg.cts_detection_probability) {
            for (int k = 0; k < 2; ++k) {
              transmitted += 1.0;
              clean_total += 1.0;
            }
          }
        } else {
          collided += 1.0;
        }
        break;
      }
    }
  }

  if (events > 0) {
    out.clean_transmissions_per_event =
        clean_total / static_cast<double>(events);
    out.control_overhead_us = control_us / static_cast<double>(events);
  }
  out.collision_fraction = transmitted > 0.0 ? collided / transmitted : 0.0;
  return out;
}

}  // namespace itb::mac
