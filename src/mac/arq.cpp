#include "mac/arq.h"

#include <algorithm>

namespace itb::mac {

// --- retry policy ------------------------------------------------------------

ArqConfig ArqConfig::validated() const {
  ArqConfig out = *this;
  out.max_attempts = std::max<std::size_t>(out.max_attempts, 1);
  out.backoff_cap_slots =
      std::max(out.backoff_cap_slots, out.backoff_base_slots);
  return out;
}

std::size_t backoff_slots(const ArqConfig& cfg,
                          std::size_t consecutive_failures) {
  if (cfg.backoff_base_slots == 0 || consecutive_failures == 0) return 0;
  std::size_t slots = cfg.backoff_base_slots;
  for (std::size_t k = 1; k < consecutive_failures; ++k) {
    slots *= 2;
    if (slots >= cfg.backoff_cap_slots) return cfg.backoff_cap_slots;
  }
  return std::min(slots, cfg.backoff_cap_slots);
}

// --- rate / waveform fallback ------------------------------------------------

const char* waveform_name(LinkWaveform w) {
  switch (w) {
    case LinkWaveform::kWifi11Mbps: return "wifi-11M";
    case LinkWaveform::kWifi5_5Mbps: return "wifi-5.5M";
    case LinkWaveform::kWifi2Mbps: return "wifi-2M";
    case LinkWaveform::kWifi1Mbps: return "wifi-1M";
    case LinkWaveform::kZigbee: return "zigbee-250k";
  }
  return "?";
}

itb::wifi::DsssRate waveform_rate(LinkWaveform w) {
  switch (w) {
    case LinkWaveform::kWifi11Mbps: return itb::wifi::DsssRate::k11Mbps;
    case LinkWaveform::kWifi5_5Mbps: return itb::wifi::DsssRate::k5_5Mbps;
    case LinkWaveform::kWifi2Mbps: return itb::wifi::DsssRate::k2Mbps;
    case LinkWaveform::kWifi1Mbps:
    case LinkWaveform::kZigbee: return itb::wifi::DsssRate::k1Mbps;
  }
  return itb::wifi::DsssRate::k1Mbps;
}

LinkWaveform waveform_for_rate(itb::wifi::DsssRate rate) {
  switch (rate) {
    case itb::wifi::DsssRate::k11Mbps: return LinkWaveform::kWifi11Mbps;
    case itb::wifi::DsssRate::k5_5Mbps: return LinkWaveform::kWifi5_5Mbps;
    case itb::wifi::DsssRate::k2Mbps: return LinkWaveform::kWifi2Mbps;
    case itb::wifi::DsssRate::k1Mbps: return LinkWaveform::kWifi1Mbps;
  }
  return LinkWaveform::kWifi2Mbps;
}

double waveform_airtime_us(LinkWaveform w, std::size_t psdu_bytes) {
  if (is_wifi(w)) {
    return itb::wifi::frame_airtime_us(waveform_rate(w), psdu_bytes);
  }
  // 802.15.4 O-QPSK at 250 kbps: 4-byte preamble + SFD + PHR = 6 bytes of
  // SHR/PHR, 32 us per byte.
  constexpr double kUsPerByte = 32.0;
  return (6.0 + static_cast<double>(psdu_bytes)) * kUsPerByte;
}

FallbackConfig FallbackConfig::validated() const {
  FallbackConfig out = *this;
  out.down_after_failures = std::max<std::size_t>(out.down_after_failures, 1);
  out.up_after_successes = std::max<std::size_t>(out.up_after_successes, 1);
  return out;
}

RungRange reachable_rungs(const FallbackConfig& cfg, LinkWaveform initial) {
  LinkWaveform floor = initial;
  if (cfg.enable_rate_fallback) {
    floor = std::max(initial, cfg.enable_zigbee_fallback
                                  ? LinkWaveform::kZigbee
                                  : LinkWaveform::kWifi1Mbps);
  }
  return {initial, floor};
}

RateFallbackController::RateFallbackController(const FallbackConfig& cfg,
                                               LinkWaveform initial)
    : cfg_(cfg.validated()),
      range_(reachable_rungs(cfg_, initial)),
      current_(initial) {}

void RateFallbackController::on_success() {
  fail_streak_ = 0;
  if (current_ == range_.top) return;
  if (++success_streak_ >= cfg_.up_after_successes) {
    current_ = static_cast<LinkWaveform>(static_cast<std::uint8_t>(current_) - 1);
    ++upshifts_;
    success_streak_ = 0;
  }
}

void RateFallbackController::on_failure() {
  success_streak_ = 0;
  if (current_ == range_.floor) return;
  if (++fail_streak_ >= cfg_.down_after_failures) {
    current_ = static_cast<LinkWaveform>(static_cast<std::uint8_t>(current_) + 1);
    ++downshifts_;
    fail_streak_ = 0;
  }
}

}  // namespace itb::mac
