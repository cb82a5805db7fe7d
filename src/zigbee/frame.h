// 802.15.4 PHY framing: preamble (4 zero bytes), SFD (0xA7), PHR (length),
// PSDU with CRC-16 FCS; plus TX/RX wrappers over the O-QPSK PHY.
#pragma once

#include <optional>

#include "zigbee/oqpsk.h"

namespace itb::zigbee {

inline constexpr std::uint8_t kSfd = 0xA7;
inline constexpr std::size_t kMaxPsduBytes = 127;

/// Serializes PPDU bytes (preamble + SFD + PHR + PSDU-with-FCS).
Bytes build_ppdu(const Bytes& mac_payload);

/// Byte-level PPDU parser: scans a decoded byte stream for preamble + SFD,
/// validates the PHR length field against the remaining buffer, and checks
/// the FCS. Shared by the waveform receiver and the robustness/fuzz tests —
/// must reject any malformed input cleanly (nullopt), never over-read.
struct ParsedPpdu {
  Bytes payload;  ///< PSDU minus FCS
  bool fcs_ok = false;
  std::size_t sfd_byte_index = 0;  ///< index of the SFD byte in `stream`
};
std::optional<ParsedPpdu> parse_ppdu(const Bytes& stream);

/// Full transmitter: payload bytes -> complex baseband.
struct ZigbeeTxResult {
  CVec baseband;
  Bytes ppdu;
  double duration_us = 0.0;
};
ZigbeeTxResult zigbee_transmit(const Bytes& mac_payload);

/// Receiver: preamble/SFD acquisition, PHR decode, FCS verification.
struct ZigbeeRxResult {
  Bytes payload;       ///< PSDU minus FCS
  bool fcs_ok = false;
  itb::dsp::Real rssi_dbm = 0.0;
  std::size_t sfd_symbol_index = 0;
};
std::optional<ZigbeeRxResult> zigbee_receive(const CVec& samples);

}  // namespace itb::zigbee
