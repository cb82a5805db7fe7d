// The paper's first contribution (§2.2): payload bits that turn a commodity
// BLE advertiser into a single-tone RF source.
//
// BLE whitens the PDU with a channel-seeded LFSR. If the application payload
// equals the whitening sequence at the payload's air position, the whitened
// air bits are all zeros (constant -250 kHz tone); the complement gives all
// ones (+250 kHz). Preamble/AA/header/AdvA/CRC cannot be chosen, so the tone
// only exists during the AdvData window — exactly the window the tag
// backscatters in.
#pragma once

#include "ble/packet.h"

namespace itb::ble {

enum class ToneSign {
  kLow,   ///< air bits all 0 -> tone at -deviation (-250 kHz)
  kHigh,  ///< air bits all 1 -> tone at +deviation (+250 kHz)
};

struct SingleToneSpec {
  unsigned channel_index = 38;
  ToneSign sign = ToneSign::kHigh;
  std::size_t payload_bytes = kMaxAdvDataBytes;  ///< AdvData length to fill
  /// Restrict to the 24 application-controllable bytes Android exposes; the
  /// remaining AdvData bytes keep whatever the stack puts there (modeled as
  /// zeros), shortening the clean tone window.
  bool android_api_constraint = false;
  AdvPacketConfig base;  ///< PDU type / AdvA used for the packet skeleton
};

struct SingleToneResult {
  AdvPacket packet;        ///< ready-to-modulate air packet
  Bytes payload;           ///< the AdvData bytes that produce the tone
  std::size_t tone_start_bit = 0;  ///< air-bit index where the tone begins
  std::size_t tone_end_bit = 0;    ///< one past the last constant air bit

  double tone_duration_us() const {
    return static_cast<double>(tone_end_bit - tone_start_bit);
  }
};

/// Computes the AdvData payload whose whitened air bits are constant, builds
/// the packet, and reports the constant-tone window.
SingleToneResult make_single_tone_packet(const SingleToneSpec& spec);

/// Convenience: returns just the payload bytes an application would hand to
/// the advertising API (e.g. over the Android AdvertiseData interface).
Bytes single_tone_payload(unsigned channel_index, ToneSign sign,
                          std::size_t payload_bytes,
                          const AdvPacketConfig& base = {});

}  // namespace itb::ble
