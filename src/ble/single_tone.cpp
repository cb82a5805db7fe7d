#include "ble/single_tone.h"

#include <cassert>

#include "phycommon/lfsr.h"

namespace itb::ble {

using itb::phy::BleWhitener;
using itb::phy::Bits;

Bytes single_tone_payload(unsigned channel_index, ToneSign sign,
                          std::size_t payload_bytes,
                          const AdvPacketConfig& base) {
  assert(payload_bytes <= kMaxAdvDataBytes);
  // Whitening starts at the PDU header. AdvData begins after header (16 bits)
  // + AdvA (48 bits) = 64 whitened bits.
  const std::size_t payload_offset_bits = 16 + base.advertiser_address.size() * 8;
  const Bits wseq = BleWhitener::sequence(
      channel_index, payload_offset_bits + payload_bytes * 8);

  Bits payload_bits(payload_bytes * 8);
  for (std::size_t i = 0; i < payload_bits.size(); ++i) {
    const std::uint8_t w = wseq[payload_offset_bits + i];
    // air = data XOR w. For all-zero air bits, data = w; for all-one,
    // data = NOT w.
    payload_bits[i] = sign == ToneSign::kLow ? w : (w ^ 1u);
  }
  return itb::phy::bits_to_bytes_lsb_first(payload_bits);
}

SingleToneResult make_single_tone_packet(const SingleToneSpec& spec) {
  SingleToneResult out;
  out.payload = single_tone_payload(spec.channel_index, spec.sign,
                                    spec.payload_bytes, spec.base);

  if (spec.android_api_constraint &&
      out.payload.size() > kAndroidAdvDataBytes) {
    // Bytes beyond the app-controllable region revert to stack defaults
    // (zeros here); the constant tone ends where control ends.
    for (std::size_t i = kAndroidAdvDataBytes; i < out.payload.size(); ++i) {
      out.payload[i] = 0x00;
    }
  }

  AdvPacketConfig cfg = spec.base;
  cfg.payload = out.payload;
  out.packet = build_adv_packet(cfg, spec.channel_index);

  // Locate the constant run the payload actually produced (the API contract
  // is the *measured* window, not the theoretical one).
  const std::size_t begin = out.packet.payload_start_bit;
  const std::size_t end = out.packet.payload_end_bit;
  const std::uint8_t want = spec.sign == ToneSign::kHigh ? 1 : 0;
  std::size_t run_begin = begin;
  while (run_begin < end && out.packet.air_bits[run_begin] != want) ++run_begin;
  std::size_t run_end = run_begin;
  while (run_end < end && out.packet.air_bits[run_end] == want) ++run_end;
  out.tone_start_bit = run_begin;
  out.tone_end_bit = run_end;
  return out;
}

}  // namespace itb::ble
