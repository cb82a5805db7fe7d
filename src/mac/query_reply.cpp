#include "mac/query_reply.h"

#include <algorithm>
#include <cmath>

namespace itb::mac {

namespace {

/// 4-bit XOR checksum over the two payload bytes, nibble-wise.
std::uint8_t checksum4(std::uint8_t addr, std::uint8_t op) {
  const std::uint8_t x = addr ^ op;
  return static_cast<std::uint8_t>((x >> 4) ^ (x & 0x0F));
}

Real clamp_probability(Real p) {
  if (std::isnan(p)) return 0.0;
  return std::clamp(p, Real{0.0}, Real{1.0});
}

}  // namespace

PollingConfig PollingConfig::validated() const {
  PollingConfig out = *this;
  if (!(out.downlink_kbps > 0.0)) out.downlink_kbps = PollingConfig{}.downlink_kbps;
  if (!(out.advertising_interval_ms > 0.0)) {
    out.advertising_interval_ms = PollingConfig{}.advertising_interval_ms;
  }
  out.downlink_error_rate = clamp_probability(out.downlink_error_rate);
  return out;
}

double poll_slot_us(const PollingConfig& cfg) {
  const double query_us =
      static_cast<double>(QueryFrame::kBits) / cfg.downlink_kbps * 1e3;
  return query_us + cfg.advertising_interval_ms * 1e3;
}

double safe_goodput_kbps(double payload_bits, double total_time_us) {
  if (!(total_time_us > 0.0)) return 0.0;
  return payload_bits / (total_time_us / 1e3);
}

Bits QueryFrame::to_bits() const {
  Bits out;
  const Bits a = itb::phy::uint_to_bits_lsb_first(tag_address, 8);
  const Bits o = itb::phy::uint_to_bits_lsb_first(opcode, 8);
  const Bits c = itb::phy::uint_to_bits_lsb_first(checksum4(tag_address, opcode), 4);
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), o.begin(), o.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

std::optional<QueryFrame> QueryFrame::from_bits(const Bits& bits) {
  if (bits.size() < kBits) return std::nullopt;
  QueryFrame out;
  out.tag_address = static_cast<std::uint8_t>(itb::phy::bits_to_uint_lsb_first(
      std::span<const std::uint8_t>(bits).subspan(0, 8)));
  out.opcode = static_cast<std::uint8_t>(itb::phy::bits_to_uint_lsb_first(
      std::span<const std::uint8_t>(bits).subspan(8, 8)));
  const auto check = static_cast<std::uint8_t>(itb::phy::bits_to_uint_lsb_first(
      std::span<const std::uint8_t>(bits).subspan(16, 4)));
  if (check != checksum4(out.tag_address, out.opcode)) return std::nullopt;
  return out;
}

}  // namespace itb::mac
