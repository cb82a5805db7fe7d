#include "zigbee/frame.h"

#include <cassert>

#include "dsp/units.h"
#include "phycommon/crc.h"

namespace itb::zigbee {

Bytes build_ppdu(const Bytes& mac_payload) {
  assert(mac_payload.size() + 2 <= kMaxPsduBytes);
  Bytes out;
  out.reserve(4 + 2 + mac_payload.size() + 2);
  out.assign(4, 0x00);  // preamble
  out.push_back(kSfd);
  out.push_back(static_cast<std::uint8_t>(mac_payload.size() + 2));  // PHR
  out.insert(out.end(), mac_payload.begin(), mac_payload.end());
  const std::uint16_t fcs = itb::phy::crc16_802154(mac_payload);
  out.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  out.push_back(static_cast<std::uint8_t>(fcs >> 8));
  return out;
}

ZigbeeTxResult zigbee_transmit(const Bytes& mac_payload) {
  ZigbeeTxResult out;
  out.ppdu = build_ppdu(mac_payload);
  const OqpskModulator mod;
  out.baseband = mod.modulate_bytes(out.ppdu);
  out.duration_us = static_cast<double>(out.ppdu.size()) * 2.0 /
                    (kSymbolRateHz / 1e6);  // 2 symbols per byte
  return out;
}

std::optional<ParsedPpdu> parse_ppdu(const Bytes& stream) {
  for (std::size_t i = 0; i + 6 < stream.size(); ++i) {
    if (stream[i] != 0x00 || stream[i + 1] != 0x00 || stream[i + 2] != 0x00 ||
        stream[i + 3] != 0x00 || stream[i + 4] != kSfd) {
      continue;
    }
    const std::size_t phr_at = i + 5;
    const std::size_t len = stream[phr_at];
    if (len < 2 || len > kMaxPsduBytes) continue;
    if (phr_at + 1 + len > stream.size()) continue;

    ParsedPpdu out;
    out.sfd_byte_index = i + 4;
    out.payload.assign(stream.begin() + static_cast<std::ptrdiff_t>(phr_at + 1),
                       stream.begin() + static_cast<std::ptrdiff_t>(phr_at + 1 + len - 2));
    const std::uint16_t expect = itb::phy::crc16_802154(out.payload);
    const std::uint16_t got = static_cast<std::uint16_t>(
        stream[phr_at + 1 + len - 2] | (stream[phr_at + 1 + len - 1] << 8));
    out.fcs_ok = expect == got;
    return out;
  }
  return std::nullopt;
}

std::optional<ZigbeeRxResult> zigbee_receive(const CVec& samples) {
  const OqpskDemodulator demod;
  // Timing search over one symbol period, keyed on finding the SFD: the
  // symbol boundary of a frame that starts anywhere in the buffer lies
  // within the first kChipsPerSymbol * kSamplesPerChip sample phases. The
  // first phase whose bytes parse wins. The noncoherent soft detector
  // absorbs any static carrier rotation and carrier offsets up to ~a
  // radian per correlation sub-block — the tag-oscillator regime that
  // breaks hard chip decisions.
  for (std::size_t phase = 0; phase < kChipsPerSymbol * kSamplesPerChip;
       ++phase) {
    const CVec soft = demod.soft_chips(samples, phase);
    const Bytes decoded = demod.soft_chips_to_bytes(soft);
    const auto parsed = parse_ppdu(decoded);
    if (!parsed) continue;

    ZigbeeRxResult out;
    out.sfd_symbol_index = parsed->sfd_byte_index * 2;
    out.payload = parsed->payload;
    out.fcs_ok = parsed->fcs_ok;
    out.rssi_dbm = itb::dsp::watts_to_dbm(itb::dsp::mean_power(
        std::span<const Complex>(samples).first(
            std::min<std::size_t>(samples.size(), 1024))));
    return out;
  }
  return std::nullopt;
}

}  // namespace itb::zigbee
