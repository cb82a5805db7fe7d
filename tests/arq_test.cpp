// Tests for the link-layer ARQ building blocks (src/mac/arq.h): the
// capped-exponential backoff policy and the rate/waveform fallback ladder.
#include <gtest/gtest.h>

#include <string>

#include "dsp/rng.h"
#include "mac/arq.h"

namespace itb::mac {
namespace {

// --- retry policy ------------------------------------------------------------

TEST(ArqBackoff, CappedExponentialSchedule) {
  ArqConfig cfg;
  cfg.backoff_base_slots = 1;
  cfg.backoff_cap_slots = 8;
  EXPECT_EQ(backoff_slots(cfg, 0), 0u);
  EXPECT_EQ(backoff_slots(cfg, 1), 1u);
  EXPECT_EQ(backoff_slots(cfg, 2), 2u);
  EXPECT_EQ(backoff_slots(cfg, 3), 4u);
  EXPECT_EQ(backoff_slots(cfg, 4), 8u);
  EXPECT_EQ(backoff_slots(cfg, 5), 8u);    // capped
  EXPECT_EQ(backoff_slots(cfg, 60), 8u);   // no overflow at deep streaks
  cfg.backoff_base_slots = 0;              // 0 = retry at the next slot
  EXPECT_EQ(backoff_slots(cfg, 4), 0u);
}

TEST(ArqConfigTest, ValidatedClampsDegenerateValues) {
  ArqConfig cfg;
  cfg.max_attempts = 0;
  cfg.backoff_base_slots = 16;
  cfg.backoff_cap_slots = 4;  // cap below base
  const ArqConfig v = cfg.validated();
  EXPECT_EQ(v.max_attempts, 1u);
  EXPECT_GE(v.backoff_cap_slots, v.backoff_base_slots);
}

// --- fallback ladder ---------------------------------------------------------

TEST(Fallback, WalksDownLadderAndProbesBackUp) {
  FallbackConfig cfg;
  cfg.enable_rate_fallback = true;
  cfg.down_after_failures = 2;
  cfg.up_after_successes = 3;
  RateFallbackController c(cfg, LinkWaveform::kWifi11Mbps);
  EXPECT_EQ(c.current(), LinkWaveform::kWifi11Mbps);
  EXPECT_FALSE(c.degraded());

  c.on_failure();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi11Mbps);  // streak of 1: hold
  c.on_failure();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi5_5Mbps);
  EXPECT_TRUE(c.degraded());
  // A success resets the failure streak.
  c.on_failure();
  c.on_success();
  c.on_failure();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi5_5Mbps);
  c.on_failure();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi2Mbps);
  EXPECT_EQ(c.downshifts(), 2u);

  // Three consecutive successes probe one rung back up — never above the
  // initial rung.
  for (int i = 0; i < 3; ++i) c.on_success();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi5_5Mbps);
  for (int i = 0; i < 3; ++i) c.on_success();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi11Mbps);
  for (int i = 0; i < 9; ++i) c.on_success();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi11Mbps);
  EXPECT_EQ(c.upshifts(), 2u);
}

TEST(Fallback, ZigbeeRungIsGated) {
  FallbackConfig cfg;
  cfg.enable_rate_fallback = true;
  cfg.down_after_failures = 1;
  RateFallbackController wifi_only(cfg, LinkWaveform::kWifi1Mbps);
  wifi_only.on_failure();
  EXPECT_EQ(wifi_only.current(), LinkWaveform::kWifi1Mbps);  // floor

  cfg.enable_zigbee_fallback = true;
  RateFallbackController dual(cfg, LinkWaveform::kWifi1Mbps);
  dual.on_failure();
  EXPECT_EQ(dual.current(), LinkWaveform::kZigbee);
  dual.on_failure();
  EXPECT_EQ(dual.current(), LinkWaveform::kZigbee);  // absolute floor
}

TEST(Fallback, ControllerStaysInsideReachableRungs) {
  // The network link build evaluates PERs only inside reachable_rungs(),
  // so the controller must never leave that range, and a run of failures
  // must reach its floor (the range is tight). Every initial rung x {rate
  // fallback off, on} x {ZigBee off, on}, driven by long fixed-seed
  // outcome sequences at three success rates.
  dsp::Xoshiro256 rng(0xFA11BAC4);
  for (std::size_t i = 0; i < kNumLinkWaveforms; ++i) {
    const auto initial = static_cast<LinkWaveform>(i);
    for (const bool rate : {false, true}) {
      for (const bool zigbee : {false, true}) {
        FallbackConfig cfg;
        cfg.enable_rate_fallback = rate;
        cfg.enable_zigbee_fallback = zigbee;
        cfg.down_after_failures = 2;
        cfg.up_after_successes = 3;
        const RungRange range = reachable_rungs(cfg, initial);
        LinkWaveform floor = initial;
        if (rate && initial != LinkWaveform::kZigbee) {
          floor = zigbee ? LinkWaveform::kZigbee : LinkWaveform::kWifi1Mbps;
        }
        const std::string where = std::string(waveform_name(initial)) +
                                  (rate ? " rate" : "") +
                                  (zigbee ? " zigbee" : "");
        EXPECT_EQ(range.top, initial) << where;
        EXPECT_EQ(range.floor, floor) << where;

        for (const double p_success : {0.2, 0.5, 0.8}) {
          RateFallbackController c(cfg, initial);
          for (int k = 0; k < 20000; ++k) {
            if (rng.uniform() < p_success) {
              c.on_success();
            } else {
              c.on_failure();
            }
            ASSERT_TRUE(range.top <= c.current() && c.current() <= range.floor)
                << where << " p=" << p_success << " step " << k << ": "
                << waveform_name(c.current());
          }
          for (std::size_t k = 0;
               k < kNumLinkWaveforms * cfg.down_after_failures; ++k) {
            c.on_failure();
          }
          EXPECT_EQ(c.current(), range.floor) << where << " p=" << p_success;
        }
      }
    }
  }
}

TEST(Fallback, DisabledControllerNeverMoves) {
  RateFallbackController c(FallbackConfig{}, LinkWaveform::kWifi2Mbps);
  for (int i = 0; i < 10; ++i) c.on_failure();
  EXPECT_EQ(c.current(), LinkWaveform::kWifi2Mbps);
  EXPECT_EQ(c.downshifts(), 0u);
}

TEST(Waveform, HelpersAreConsistent) {
  for (std::size_t w = 0; w < kNumLinkWaveforms; ++w) {
    const auto wf = static_cast<LinkWaveform>(w);
    EXPECT_GT(waveform_airtime_us(wf, 30), 0.0);
    EXPECT_STRNE(waveform_name(wf), "?");
  }
  EXPECT_EQ(waveform_for_rate(waveform_rate(LinkWaveform::kWifi5_5Mbps)),
            LinkWaveform::kWifi5_5Mbps);
  // ZigBee at 250 kbps is far slower on the air than any Wi-Fi rung.
  EXPECT_GT(waveform_airtime_us(LinkWaveform::kZigbee, 30),
            waveform_airtime_us(LinkWaveform::kWifi1Mbps, 30));
}

}  // namespace
}  // namespace itb::mac
