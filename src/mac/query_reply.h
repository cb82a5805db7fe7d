// Query-reply protocol tying the two directions together (paper §2.5):
// the Wi-Fi device queries a tag over the OFDM-AM downlink; the addressed
// tag answers on the backscatter uplink during the next BLE advertisement.
// Multiple tags share the medium by being polled one after the other;
// sim::NetworkCoordinator runs that schedule over a fleet.
#pragma once

#include <cstdint>
#include <optional>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::mac {

using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

struct QueryFrame {
  std::uint8_t tag_address = 0;
  std::uint8_t opcode = 0;  ///< application command
  Bits to_bits() const;
  static std::optional<QueryFrame> from_bits(const Bits& bits);

  static constexpr std::size_t kBits = 8 + 8 + 4;  ///< addr + op + checksum
};

struct PollingConfig {
  /// Downlink bit rate (paper: 125 kbps with 2 OFDM symbols/bit).
  Real downlink_kbps = 125.0;
  /// Advertising interval bounds how often a tag can reply.
  Real advertising_interval_ms = 20.0;
  /// Per-query probability the downlink decode fails at the tag.
  Real downlink_error_rate = 0.01;

  /// Copy with degenerate values clamped, mirroring
  /// ReservationConfig::validated(): a zero/negative/NaN downlink rate or
  /// advertising interval would make poll_slot_us() zero, negative, or
  /// infinite (and slot math downstream divides by it); the error rate is
  /// a probability and clamps into [0, 1] (NaN -> 0).
  PollingConfig validated() const;
};

/// Air time of one TDMA poll slot (query transmission + the advertising
/// interval in which the addressed tag may reply), microseconds: the slot
/// length of sim::NetworkCoordinator's TDMA schedule.
double poll_slot_us(const PollingConfig& cfg);

/// `payload_bits` delivered over `total_time_us` -> kbps; 0 (not NaN/inf)
/// when no air time was spent (zero tags, zero rounds, or empty payloads
/// delivered in zero time).
double safe_goodput_kbps(double payload_bits, double total_time_us);

}  // namespace itb::mac
