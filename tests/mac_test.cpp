// Tests for the DCF coexistence simulator (Fig. 12 substrate), the channel
// reservation schemes (§2.3.3) and the query-reply protocol (§2.5).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mac/dcf.h"
#include "mac/query_reply.h"
#include "mac/reservation.h"

namespace itb::mac {
namespace {

// --- DCF -----------------------------------------------------------------------

TEST(Dcf, BaselineThroughputInIperfRange) {
  InterfererConfig none;
  const DcfResult r = simulate_dcf(none, 2.0, 1);
  // A saturated 36->54 Mbps 802.11g TCP flow lands around 18-26 Mbps.
  EXPECT_GT(r.throughput_mbps, 15.0);
  EXPECT_LT(r.throughput_mbps, 30.0);
  EXPECT_LT(r.collision_rate, 0.01);
}

TEST(Dcf, OffChannelInterfererIsHarmless) {
  InterfererConfig ssb;
  ssb.packets_per_second = 1000.0;
  ssb.on_victim_channel = false;  // SSB: packets land on channel 11
  InterfererConfig none;
  const DcfResult with = simulate_dcf(ssb, 2.0, 2);
  const DcfResult without = simulate_dcf(none, 2.0, 2);
  EXPECT_NEAR(with.throughput_mbps, without.throughput_mbps, 0.5);
}

TEST(Dcf, OnChannelMirrorDegradesThroughput) {
  InterfererConfig dsb;
  dsb.packets_per_second = 1000.0;
  dsb.on_victim_channel = true;  // DSB mirror copy lands on channel 6
  InterfererConfig none;
  const DcfResult with = simulate_dcf(dsb, 2.0, 3);
  const DcfResult without = simulate_dcf(none, 2.0, 3);
  EXPECT_LT(with.throughput_mbps, 0.75 * without.throughput_mbps);
  EXPECT_GT(with.collision_rate, 0.1);
}

TEST(Dcf, LowRateInterfererNegligible) {
  // Paper Fig. 12: at 50 pkts/s even the DSB mirror barely dents iperf.
  InterfererConfig dsb;
  dsb.packets_per_second = 50.0;
  dsb.on_victim_channel = true;
  InterfererConfig none;
  const DcfResult with = simulate_dcf(dsb, 2.0, 4);
  const DcfResult without = simulate_dcf(none, 2.0, 4);
  EXPECT_GT(with.throughput_mbps, 0.85 * without.throughput_mbps);
}

TEST(Dcf, DegradationGrowsWithRate) {
  double prev = 1e9;
  for (const double rate : {50.0, 650.0, 1000.0}) {
    InterfererConfig i;
    i.packets_per_second = rate;
    i.on_victim_channel = true;
    const DcfResult r = simulate_dcf(i, 2.0, 5);
    EXPECT_LT(r.throughput_mbps, prev + 0.8);
    prev = r.throughput_mbps;
  }
}

TEST(Dcf, DeterministicForSameSeed) {
  InterfererConfig i;
  i.packets_per_second = 650.0;
  i.on_victim_channel = true;
  const DcfResult a = simulate_dcf(i, 1.0, 42);
  const DcfResult b = simulate_dcf(i, 1.0, 42);
  EXPECT_DOUBLE_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.frames_ok, b.frames_ok);
}

// --- reservation (§2.3.3) -----------------------------------------------------------

TEST(Reservation, NoSchemeSuffersAmbientCollisions) {
  ReservationConfig cfg;
  cfg.scheme = ReservationScheme::kNone;
  cfg.channel_busy_probability = 0.3;
  const ReservationResult r = evaluate_reservation(cfg, 4000, 1);
  EXPECT_NEAR(r.collision_fraction, 0.3, 0.03);
}

TEST(Reservation, CtsToSelfEliminatesCollisions) {
  ReservationConfig cfg;
  cfg.scheme = ReservationScheme::kCtsToSelf;
  const ReservationResult r = evaluate_reservation(cfg, 1000, 2);
  EXPECT_DOUBLE_EQ(r.collision_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.clean_transmissions_per_event, 3.0);
}

TEST(Reservation, TagRtsProtectsButCostsControl) {
  ReservationConfig cfg;
  cfg.scheme = ReservationScheme::kTagRts;
  const ReservationResult r = evaluate_reservation(cfg, 4000, 3);
  EXPECT_DOUBLE_EQ(r.collision_fraction, 0.0);  // protected or silent
  EXPECT_GT(r.control_overhead_us, 0.0);
  EXPECT_LT(r.clean_transmissions_per_event, 2.01);
}

TEST(Reservation, DataAsRtsBeatsPlainRtsOnGoodput) {
  ReservationConfig rts;
  rts.scheme = ReservationScheme::kTagRts;
  ReservationConfig data;
  data.scheme = ReservationScheme::kDataAsRts;
  const ReservationResult a = evaluate_reservation(rts, 4000, 4);
  const ReservationResult b = evaluate_reservation(data, 4000, 4);
  // Same protection, but the first slot carries data instead of control.
  EXPECT_GT(b.clean_transmissions_per_event, a.clean_transmissions_per_event);
  EXPECT_LT(b.control_overhead_us, a.control_overhead_us + 1e-9);
}

TEST(Reservation, OutOfRangeProbabilitiesAreClamped) {
  // Regression: probabilities outside [0,1] used to flow straight into the
  // Monte-Carlo loop and could produce negative clean-transmission counts.
  ReservationConfig cfg;
  cfg.scheme = ReservationScheme::kDataAsRts;
  cfg.channel_busy_probability = 1.7;    // clamps to 1 -> everything collides
  cfg.cts_detection_probability = -0.3;  // clamps to 0
  const ReservationResult r = evaluate_reservation(cfg, 1000, 11);
  EXPECT_GE(r.clean_transmissions_per_event, 0.0);
  EXPECT_LE(r.collision_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.clean_transmissions_per_event, 0.0);
  EXPECT_DOUBLE_EQ(r.collision_fraction, 1.0);

  const ReservationConfig v = cfg.validated();
  EXPECT_DOUBLE_EQ(v.channel_busy_probability, 1.0);
  EXPECT_DOUBLE_EQ(v.cts_detection_probability, 0.0);

  cfg.channel_busy_probability = std::nan("");
  EXPECT_DOUBLE_EQ(cfg.validated().channel_busy_probability, 0.0);
}

TEST(Reservation, ZeroEventsYieldsZeroesNotNan) {
  ReservationConfig cfg;
  cfg.scheme = ReservationScheme::kTagRts;
  const ReservationResult r = evaluate_reservation(cfg, 0, 12);
  EXPECT_DOUBLE_EQ(r.clean_transmissions_per_event, 0.0);
  EXPECT_DOUBLE_EQ(r.collision_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.control_overhead_us, 0.0);
}

TEST(Reservation, ClosedFormMatchesMonteCarlo) {
  // reservation_outcome() is the O(1) form the network simulator uses per
  // poll; it must agree with the Monte-Carlo evaluator in expectation.
  for (const auto scheme :
       {ReservationScheme::kNone, ReservationScheme::kCtsToSelf,
        ReservationScheme::kTagRts, ReservationScheme::kDataAsRts}) {
    ReservationConfig cfg;
    cfg.scheme = scheme;
    cfg.channel_busy_probability = 0.25;
    cfg.cts_detection_probability = 0.9;
    const ReservationOutcome closed = reservation_outcome(cfg);
    const ReservationResult mc = evaluate_reservation(cfg, 20000, 13);
    EXPECT_NEAR(closed.data_slots_per_event * closed.p_clean,
                mc.clean_transmissions_per_event, 0.05)
        << "scheme " << static_cast<int>(scheme);
    EXPECT_NEAR(closed.control_overhead_us, mc.control_overhead_us, 1e-9);
    // Outcome probabilities form a distribution.
    EXPECT_NEAR(closed.p_clean + closed.p_collision + closed.p_silent, 1.0,
                1e-12);
    EXPECT_GE(closed.p_clean, 0.0);
    EXPECT_GE(closed.p_collision, 0.0);
    EXPECT_GE(closed.p_silent, 0.0);
  }
}

TEST(Reservation, BusierChannelHurtsUnprotectedMore) {
  for (const auto scheme : {ReservationScheme::kNone, ReservationScheme::kDataAsRts}) {
    ReservationConfig quiet;
    quiet.scheme = scheme;
    quiet.channel_busy_probability = 0.05;
    ReservationConfig busy = quiet;
    busy.channel_busy_probability = 0.6;
    const auto a = evaluate_reservation(quiet, 3000, 5);
    const auto b = evaluate_reservation(busy, 3000, 5);
    EXPECT_GT(a.clean_transmissions_per_event, b.clean_transmissions_per_event);
  }
}

// --- query-reply (§2.5) -----------------------------------------------------------

TEST(QueryReply, FrameRoundTrip) {
  QueryFrame q;
  q.tag_address = 0x42;
  q.opcode = 0x07;
  const auto bits = q.to_bits();
  EXPECT_EQ(bits.size(), QueryFrame::kBits);
  const auto parsed = QueryFrame::from_bits(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tag_address, 0x42);
  EXPECT_EQ(parsed->opcode, 0x07);
}

TEST(QueryReply, ChecksumCatchesCorruption) {
  QueryFrame q;
  q.tag_address = 0x11;
  q.opcode = 0x22;
  auto bits = q.to_bits();
  bits[3] ^= 1;
  EXPECT_FALSE(QueryFrame::from_bits(bits).has_value());
}

TEST(QueryReply, ZeroTimeGoodputIsZeroNotNan) {
  // Regression: goodput must be 0, never NaN, whenever no air time was
  // spent (an empty fleet or zero rounds; Network.EmptyFleetYieldsZeroesNotNan
  // runs both through the coordinator).
  EXPECT_DOUBLE_EQ(safe_goodput_kbps(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_goodput_kbps(240.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_goodput_kbps(240.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_goodput_kbps(240.0, 1e3), 240.0);
}

TEST(QueryReply, ValidatedClampsDegeneratePollingConfig) {
  // Mirrors ReservationConfig::validated(): degenerate rates/intervals fall
  // back to defaults (they feed poll_slot_us divisions), the error rate
  // clamps into [0, 1].
  PollingConfig cfg;
  cfg.downlink_kbps = 0.0;
  cfg.advertising_interval_ms = -5.0;
  cfg.downlink_error_rate = 1.7;
  const PollingConfig v = cfg.validated();
  EXPECT_DOUBLE_EQ(v.downlink_kbps, PollingConfig{}.downlink_kbps);
  EXPECT_DOUBLE_EQ(v.advertising_interval_ms,
                   PollingConfig{}.advertising_interval_ms);
  EXPECT_DOUBLE_EQ(v.downlink_error_rate, 1.0);
  EXPECT_GT(poll_slot_us(v), 0.0);

  cfg.downlink_error_rate = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_DOUBLE_EQ(cfg.validated().downlink_error_rate, 0.0);

  cfg.downlink_kbps = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_DOUBLE_EQ(cfg.validated().downlink_kbps,
                   PollingConfig{}.downlink_kbps);

  // An already-sane config passes through untouched.
  const PollingConfig sane;
  const PollingConfig sv = sane.validated();
  EXPECT_DOUBLE_EQ(sv.downlink_kbps, sane.downlink_kbps);
  EXPECT_DOUBLE_EQ(sv.downlink_error_rate, sane.downlink_error_rate);
}

TEST(QueryReply, PollSlotAccountsQueryAndReplyWindow) {
  PollingConfig cfg;
  cfg.downlink_kbps = 125.0;
  cfg.advertising_interval_ms = 20.0;
  const double expected = 20.0 / 125.0 * 1e3 + 20e3;  // 20 bits + window
  EXPECT_NEAR(poll_slot_us(cfg), expected, 1e-9);
}

}  // namespace
}  // namespace itb::mac
