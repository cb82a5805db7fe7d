// Resilience tests (ISSUE 6): fault injection, link-layer ARQ, AP
// failover and rate fallback inside the network simulator — including the
// acceptance criteria that a fault-injected 1000-tag ward run is
// bit-identical at 1/2/8 threads and that ARQ + fallback recovers >= 95%
// delivery ratio where the no-ARQ baseline drops the affected polls.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fleet_configs.h"
#include "mac/arq.h"
#include "obs/capture.h"
#include "poll_trace.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace itb::sim {
namespace {

// --- fault schedule + timeline ----------------------------------------------

TEST(Faults, TimelineQueriesAreIntervalExact) {
  FaultSchedule sched;
  sched.ap_outage(1, 100.0, 50.0)
      .interference(6, 200.0, 100.0, 20.0)
      .brownout(3, 400.0, 10.0)
      .snr_slump(250.0, 100.0, 6.0);
  const std::vector<unsigned> channels = {1, 6, 11};
  const FaultTimeline tl(sched, /*num_aps=*/2, channels, /*num_tags=*/5);
  ASSERT_TRUE(tl.any());

  EXPECT_FALSE(tl.ap_down(1, 99.0));
  EXPECT_TRUE(tl.ap_down(1, 100.0));
  EXPECT_TRUE(tl.ap_down(1, 149.0));
  EXPECT_FALSE(tl.ap_down(1, 150.0));  // half-open interval
  EXPECT_FALSE(tl.ap_down(0, 120.0));  // other AP unaffected

  EXPECT_TRUE(tl.tag_browned_out(3, 405.0));
  EXPECT_FALSE(tl.tag_browned_out(2, 405.0));

  // Group 1 is channel 6: burst only; burst + slump add in dB where they
  // overlap; the slump alone reaches every group.
  EXPECT_DOUBLE_EQ(tl.channel_noise_rise_db(1, 210.0), 20.0);
  EXPECT_DOUBLE_EQ(tl.channel_noise_rise_db(1, 260.0), 26.0);
  EXPECT_DOUBLE_EQ(tl.channel_noise_rise_db(0, 260.0), 6.0);
  EXPECT_DOUBLE_EQ(tl.channel_noise_rise_db(1, 500.0), 0.0);

  // Only interference occupies the channel (CCA); slumps never do.
  EXPECT_NEAR(tl.channel_busy_boost(1, 210.0), 1.0 - std::exp(-2.0), 1e-12);
  EXPECT_DOUBLE_EQ(tl.channel_busy_boost(0, 260.0), 0.0);
  EXPECT_DOUBLE_EQ(tl.channel_busy_boost(1, 500.0), 0.0);
}

TEST(Faults, GeneratedScheduleIsSeedDeterministic) {
  FaultProfile profile;
  profile.horizon_us = 10e6;
  profile.outages_per_ap = 1.0;
  profile.bursts_per_channel = 2.0;
  profile.brownouts_per_tag = 0.5;
  profile.snr_slumps = 2.0;
  const std::vector<unsigned> channels = {1, 6, 11};

  const FaultSchedule a = generate_fault_schedule(profile, 4, channels, 50, 9);
  const FaultSchedule b = generate_fault_schedule(profile, 4, channels, 50, 9);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].entity, b.events[i].entity);
    EXPECT_DOUBLE_EQ(a.events[i].start_us, b.events[i].start_us);
    EXPECT_DOUBLE_EQ(a.events[i].duration_us, b.events[i].duration_us);
  }
  // Every event lands inside the horizon with a positive duration.
  for (const FaultEvent& ev : a.events) {
    EXPECT_GE(ev.start_us, 0.0);
    EXPECT_LT(ev.start_us, profile.horizon_us);
    EXPECT_GT(ev.duration_us, 0.0);
  }
  const FaultSchedule c =
      generate_fault_schedule(profile, 4, channels, 50, 10);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].start_us != c.events[i].start_us;
  }
  EXPECT_TRUE(differs);
}

// --- network integration -----------------------------------------------------

/// Strong short-range links on one channel with a clean medium: the only
/// stochastic loss is the downlink error rate, giving a known per-attempt
/// success probability for the closed-form comparison.
NetworkConfig clean_grid_config() {
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 200;
  cfg.topology.extent_m = 3.0;
  cfg.topology.num_helpers = 9;
  cfg.topology.num_aps = 2;
  cfg.wifi_channels = {6};
  cfg.tag_medium_loss_db = 0.0;
  cfg.payload_bytes = 16;
  cfg.ambient_busy_probability = 0.0;
  cfg.reservation = mac::ReservationScheme::kNone;
  cfg.polling.downlink_error_rate = 0.0;
  cfg.seed = 31;
  return cfg;
}

// Geometric-retry oracle: probability that a message is delivered within
// `max_attempts` independent attempts that each succeed with probability
// `p_success`, 1 - (1-p)^n.
double arq_delivery_probability(double p_success, std::size_t max_attempts) {
  return 1.0 - std::pow(1.0 - p_success, static_cast<double>(max_attempts));
}

TEST(Resilience, ArqDeliveryRatioMatchesGeometricClosedForm) {
  // Per-attempt success is pinned by the downlink error rate (reply links
  // are near-perfect), so the measured delivery ratio must match
  // arq_delivery_probability(p, n) and the retry histogram's mean the
  // conditional geometric mean.
  const double p = 0.6;
  const std::size_t attempts = 4;
  NetworkConfig cfg = clean_grid_config();
  cfg.polling.downlink_error_rate = 1.0 - p;
  cfg.rounds = 40;
  cfg.enable_arq = true;
  cfg.arq.max_attempts = attempts;
  cfg.arq.retry_budget = 100;
  cfg.arq.backoff_base_slots = 0;  // retry every round: pure geometric

  const NetworkStats s = NetworkCoordinator(cfg).run();
  const std::uint64_t completed = s.messages_delivered + s.messages_dropped;
  ASSERT_GT(completed, 1000u);
  EXPECT_NEAR(s.delivery_ratio, arq_delivery_probability(p, attempts),
              0.02);
  // E[attempts | delivered] = sum k p q^{k-1} / (1 - q^n).
  double cond = 0.0;
  for (std::size_t k = 1; k <= attempts; ++k) {
    cond += static_cast<double>(k) * p *
            std::pow(1.0 - p, static_cast<double>(k - 1));
  }
  cond /= arq_delivery_probability(p, attempts);
  EXPECT_NEAR(s.retry_histogram.mean_attempts(), cond, 0.1);
  EXPECT_GT(s.retransmissions, 0u);

  // Without ARQ the same channel delivers only p of its polls.
  cfg.enable_arq = false;
  const NetworkStats base = NetworkCoordinator(cfg).run();
  EXPECT_NEAR(base.delivery_ratio, p, 0.02);
  EXPECT_EQ(base.retransmissions, 0u);
}

TEST(Resilience, PollPartitionHoldsUnderFaultsAndArq) {
  // Every scheduled poll resolves to exactly one outcome class, faults or
  // not — the fault taxonomy extends the old partition, never leaks.
  NetworkConfig cfg = clean_grid_config();
  cfg.topology.num_tags = 90;
  cfg.rounds = 12;
  cfg.enable_arq = true;
  cfg.arq.backoff_base_slots = 1;
  cfg.ambient_busy_probability = 0.1;
  cfg.reservation = mac::ReservationScheme::kDataAsRts;
  cfg.polling.downlink_error_rate = 0.05;
  FaultProfile profile;
  profile.horizon_us = 90.0 * 12.0 * 21000.0;
  profile.outages_per_ap = 1.0;
  profile.bursts_per_channel = 2.0;
  profile.burst_mean_us = 2e6;
  profile.brownouts_per_tag = 0.4;
  profile.brownout_mean_us = 5e5;
  profile.snr_slumps = 1.0;
  cfg.faults = generate_fault_schedule(profile, cfg.topology.num_aps,
                                       cfg.wifi_channels,
                                       cfg.topology.num_tags, 5);
  ASSERT_FALSE(cfg.faults.empty());

  const NetworkStats s = NetworkCoordinator(cfg).run();
  EXPECT_EQ(s.queries_sent, 90u * 12u);
  EXPECT_EQ(s.queries_sent,
            s.replies_received + s.downlink_misses + s.reservation_denied +
                s.collisions + s.decode_failures + s.backoff_skips +
                s.brownout_skips + s.outage_skips + s.link_down_polls);
  EXPECT_GT(s.brownout_skips + s.outage_skips, 0u);
  // Message accounting closes: offered = delivered + dropped + in flight.
  EXPECT_GE(s.messages_offered, s.messages_delivered + s.messages_dropped);
  EXPECT_GE(s.energy_per_delivered_byte_nj, 0.0);
  EXPECT_FALSE(std::isnan(s.energy_per_delivered_byte_nj));
}

TEST(Resilience, FaultInjected1000TagRunBitIdenticalAcrossThreads) {
  // Acceptance criterion: the full resilience machinery — generated fault
  // schedule, ARQ with backoff, AP failover, rate + ZigBee fallback —
  // stays bit-identical (FNV digest over every stat) at 1, 2 and 8
  // threads.
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kHospitalWard;
  cfg.topology.num_tags = 1000;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = 4;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 4;
  cfg.shard_tags = 64;  // many shards so threading actually interleaves
  cfg.seed = 77;
  cfg.enable_arq = true;
  cfg.arq.max_attempts = 6;
  cfg.arq.backoff_base_slots = 1;
  cfg.fallback.enable_rate_fallback = true;
  cfg.fallback.enable_zigbee_fallback = true;
  cfg.ap_failover = true;
  FaultProfile profile;
  profile.horizon_us = 1000.0 / 3.0 * 4.0 * 21000.0;
  profile.outages_per_ap = 1.5;
  profile.outage_mean_us = 3e6;
  profile.bursts_per_channel = 2.0;
  profile.burst_mean_us = 1e6;
  profile.brownouts_per_tag = 0.3;
  profile.snr_slumps = 2.0;
  cfg.faults = generate_fault_schedule(profile, cfg.topology.num_aps,
                                       cfg.wifi_channels,
                                       cfg.topology.num_tags, cfg.seed);
  ASSERT_FALSE(cfg.faults.empty());

  cfg.num_threads = 1;
  const NetworkStats s1 = NetworkCoordinator(cfg).run();
  cfg.num_threads = 2;
  const NetworkStats s2 = NetworkCoordinator(cfg).run();
  cfg.num_threads = 8;
  const NetworkStats s8 = NetworkCoordinator(cfg).run();

  ASSERT_EQ(s1.per_tag.size(), 1000u);
  EXPECT_EQ(s1.digest(), s2.digest());
  EXPECT_EQ(s1.digest(), s8.digest());
  // The fault machinery actually fired (otherwise this test proves
  // nothing about its determinism).
  EXPECT_GT(s1.brownout_skips, 0u);
  EXPECT_GT(s1.outage_skips + s1.failover_polls, 0u);
  EXPECT_GT(s1.retransmissions, 0u);
  EXPECT_GT(s1.recovery_time.total, 0u);
}

TEST(Resilience, GoldenApOutageFailoverRecoveryTimeline) {
  // Hand-built schedule on a deterministic link (no stochastic losses):
  // the per-poll trace must show, event by event, delivery -> outage ->
  // recovery without failover, and delivery via the backup AP with it.
  NetworkConfig cfg = clean_grid_config();
  cfg.topology.num_tags = 2;
  cfg.topology.num_helpers = 2;
  cfg.topology.num_aps = 2;
  cfg.rounds = 6;

  // Learn tag 0's primary/failover APs from a fault-free build, then
  // target the outage at exactly that primary.
  cfg.ap_failover = true;
  const NetworkCoordinator probe(cfg);
  const std::uint32_t primary = probe.links()[0].ap;
  ASSERT_TRUE(probe.links()[0].has_failover);
  const std::uint32_t backup = probe.links()[0].failover_ap;
  ASSERT_NE(primary, backup);

  // Tag 0 polls at r * round_us with round_us = 2 * 20160 us; the window
  // [70 ms, 130 ms) covers exactly its round-2 and round-3 queries.
  cfg.faults.ap_outage(primary, 70e3, 60e3);

  // Runs the fleet and returns tag 0's polls from its obs trace.
  const auto run_tag0 = [](const NetworkConfig& c, NetworkStats& stats) {
    obs::RunCapture capture;
    stats = NetworkCoordinator(c).run(&capture);
    std::vector<test::TracedPoll> t;
    for (const test::TracedPoll& p : test::traced_polls(capture.trace)) {
      if (p.tag == 0) t.push_back(p);
    }
    return t;
  };

  cfg.ap_failover = false;
  NetworkStats plain;
  const std::vector<test::TracedPoll> pt = run_tag0(cfg, plain);
  ASSERT_EQ(pt.size(), 6u);
  const PollOutcome expected[] = {
      PollOutcome::kDelivered, PollOutcome::kDelivered,
      PollOutcome::kApOutage,  PollOutcome::kApOutage,
      PollOutcome::kDelivered, PollOutcome::kDelivered};
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(pt[r].round, r);
    EXPECT_EQ(pt[r].outcome, poll_outcome_name(expected[r])) << "round " << r;
    EXPECT_EQ(pt[r].ap, primary) << "round " << r;
  }
  // The disruption opened at the round-2 query and healed at the round-4
  // delivery: recovery spans roughly two TDMA rounds.
  ASSERT_GT(plain.recovery_time.total, 0u);
  EXPECT_GT(plain.recovery_time.max_us, 70e3);
  EXPECT_LT(plain.recovery_time.max_us, 130e3);
  // Tag 0 skipped exactly its two in-window polls; tag 1 may associate
  // with the other AP, so only the per-tag count is pinned.
  ASSERT_EQ(plain.per_tag.size(), 2u);
  EXPECT_EQ(plain.per_tag[0].outage_skips, 2u);
  EXPECT_GE(plain.outage_skips, 2u);

  // With failover every poll still delivers; rounds 2-3 ride the backup.
  cfg.ap_failover = true;
  NetworkStats fo;
  const std::vector<test::TracedPoll> ft = run_tag0(cfg, fo);
  ASSERT_EQ(ft.size(), 6u);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(ft[r].round, r);
    EXPECT_EQ(ft[r].outcome, "delivered") << "round " << r;
    EXPECT_EQ(ft[r].ap, (r == 2 || r == 3) ? backup : primary)
        << "round " << r;
  }
  EXPECT_EQ(fo.outage_skips, 0u);
  ASSERT_EQ(fo.per_tag.size(), 2u);
  EXPECT_EQ(fo.per_tag[0].failover_polls, 2u);
  EXPECT_EQ(fo.recovery_time.total, 0u);  // nothing was ever disrupted
}

TEST(Resilience, ArqWithFallbackRecoversDeliveryUnderFaults) {
  // Acceptance criterion: under an AP outage plus per-channel interference
  // bursts, ARQ + rate fallback holds >= 95% delivery ratio while the
  // no-ARQ baseline (same faults, same seed) drops the affected polls.
  // A dense deployment where the fault-free links are healthy (the default
  // -32 dBm peak detector limits the downlink to ~2 m, so a sparse ward is
  // link-limited rather than fault-limited; here an LNA-assisted wake
  // receiver at -60 dBm makes geometry a non-issue and faults the dominant
  // loss mechanism).
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 240;
  cfg.topology.extent_m = 10.0;
  cfg.topology.num_helpers = 36;
  cfg.topology.num_aps = 4;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 10;
  cfg.ambient_busy_probability = 0.05;
  cfg.tag_medium_loss_db = 0.0;
  cfg.detector_sensitivity_dbm = -60.0;
  cfg.seed = 12;
  // 80 tags/channel -> round ~1.6 s, timeline ~16 s. One AP reboots for
  // 4 s; every channel takes a 3 s interference burst mid-run.
  cfg.faults.ap_outage(0, 2e6, 4e6);
  for (const unsigned ch : {1u, 6u, 11u}) {
    cfg.faults.interference(ch, 5e6, 3e6, 25.0);
  }

  NetworkConfig arq_cfg = cfg;
  arq_cfg.enable_arq = true;
  arq_cfg.arq.max_attempts = 8;
  arq_cfg.arq.retry_budget = 16;
  arq_cfg.arq.backoff_base_slots = 0;
  arq_cfg.fallback.enable_rate_fallback = true;
  arq_cfg.fallback.enable_zigbee_fallback = true;
  arq_cfg.fallback.down_after_failures = 2;
  arq_cfg.ap_failover = true;

  const NetworkStats base = NetworkCoordinator(cfg).run();
  const NetworkStats arq = NetworkCoordinator(arq_cfg).run();

  // The baseline really lost the affected polls: interference turned into
  // dropped messages, the outage into skipped slots.
  EXPECT_GT(base.messages_dropped, 0u);
  EXPECT_GT(base.outage_skips, 0u);
  EXPECT_LT(base.delivery_ratio, 0.93);

  EXPECT_GE(arq.delivery_ratio, 0.95);
  EXPECT_GT(arq.delivery_ratio, base.delivery_ratio + 0.03);
  EXPECT_GT(arq.retransmissions, 0u);
  EXPECT_GT(arq.failover_polls, 0u);
  EXPECT_GT(arq.recovery_time.total, 0u);
  EXPECT_GT(arq.energy_per_delivered_byte_nj, 0.0);
  // Goodput survives too, not just the ratio: retries convert would-be
  // losses into delivered payload.
  EXPECT_GT(arq.messages_delivered, base.messages_delivered);
}

TEST(Resilience, BackoffIdlesSlotsDeterministically) {
  // A lossy downlink with backoff enabled must idle slots (kBackoff) and
  // stay reproducible: backoff state is per-tag, so the digest contract
  // survives the extra control flow at any thread count.
  NetworkConfig cfg = clean_grid_config();
  cfg.topology.num_tags = 120;
  cfg.rounds = 16;
  cfg.shard_tags = 16;
  cfg.polling.downlink_error_rate = 0.5;
  cfg.enable_arq = true;
  cfg.arq.backoff_base_slots = 1;
  cfg.arq.backoff_cap_slots = 4;

  cfg.num_threads = 1;
  const NetworkStats a = NetworkCoordinator(cfg).run();
  cfg.num_threads = 2;
  const NetworkStats b = NetworkCoordinator(cfg).run();
  cfg.num_threads = 8;
  const NetworkStats c = NetworkCoordinator(cfg).run();
  EXPECT_GT(a.backoff_skips, 0u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), c.digest());

  // Backoff trades slots for energy: with it disabled the same channel
  // makes at least as many attempts.
  NetworkConfig eager = cfg;
  eager.num_threads = 1;
  eager.arq.backoff_base_slots = 0;
  const NetworkStats e = NetworkCoordinator(eager).run();
  EXPECT_EQ(e.backoff_skips, 0u);
  EXPECT_GE(e.messages_offered + e.retransmissions,
            a.messages_offered + a.retransmissions);
}

TEST(Resilience, LinkBuildPerTablesMatchOneCallClosedForms) {
  // The link build shares each SNR's header term across rungs and reuses
  // the initial rung's payload BER for reply_per. Every value it stores
  // must still equal (==, not near) the one-call closed form at the same
  // leakage-degraded SNR and frame size, and the rungs no poll can reach
  // must hold the 1.0 fill. A small faulted ward with ARQ, fallback and
  // failover, at both ends of the ladder, and once with neither fallback
  // nor failover.
  struct Case {
    itb::wifi::DsssRate rate;
    bool rate_fallback;
    bool zigbee;
    bool failover;
  };
  const Case cases[] = {{itb::wifi::DsssRate::k2Mbps, true, true, true},
                        {itb::wifi::DsssRate::k11Mbps, true, false, true},
                        {itb::wifi::DsssRate::k5_5Mbps, false, false, false}};
  for (const Case& c : cases) {
    NetworkConfig cfg;
    cfg.topology.kind = TopologyKind::kHospitalWard;
    cfg.topology.num_tags = 300;
    cfg.topology.num_helpers = 0;
    cfg.topology.num_aps = 4;
    cfg.detector_sensitivity_dbm = -49.0;
    cfg.rate = c.rate;
    cfg.enable_arq = true;
    cfg.fallback.enable_rate_fallback = c.rate_fallback;
    cfg.fallback.enable_zigbee_fallback = c.zigbee;
    cfg.ap_failover = c.failover;
    cfg.faults.ap_outage(0, 1e5, 1e6).snr_slump(2e5, 1e6, 6.0);
    const NetworkCoordinator net(cfg);
    ASSERT_NE(net.wire_bytes(), cfg.payload_bytes);
    const mac::RungRange rungs = mac::reachable_rungs(
        net.config().fallback, mac::waveform_for_rate(cfg.rate));

    const auto closed_form = [&](std::size_t w, Real snr) {
      const auto wf = static_cast<mac::LinkWaveform>(w);
      return mac::is_wifi(wf)
                 ? channel::per_80211b(mac::waveform_rate(wf), snr,
                                       net.wire_bytes())
                 : channel::per_802154(snr, net.wire_bytes());
    };
    std::size_t with_failover = 0;
    for (std::size_t t = 0; t < net.links().size(); ++t) {
      const TagLink& link = net.links()[t];
      const Real rise =
          net.channel_plan()[t % cfg.wifi_channels.size()].leakage_noise_rise_db;
      const Real snr = link.snr_db - rise;
      const Real fo_snr = link.failover_snr_db - rise;
      EXPECT_EQ(link.reply_per,
                channel::per_80211b(cfg.rate, snr, cfg.payload_bytes))
          << "tag " << t;
      with_failover += link.has_failover ? 1 : 0;
      for (std::size_t w = 0; w < mac::kNumLinkWaveforms; ++w) {
        const auto wf = static_cast<mac::LinkWaveform>(w);
        const bool in_range = rungs.top <= wf && wf <= rungs.floor;
        EXPECT_EQ(link.waveform_per[w], in_range ? closed_form(w, snr) : 1.0)
            << "tag " << t << " rung " << w;
        EXPECT_EQ(link.failover_waveform_per[w],
                  in_range && link.has_failover ? closed_form(w, fo_snr) : 1.0)
            << "tag " << t << " rung " << w;
      }
    }
    EXPECT_EQ(with_failover > 0, c.failover);
  }
}

TEST(Resilience, NetResilienceDigestsPinned) {
  // bench/net_resilience.cpp's digests at fault intensity 1 (5000-tag
  // grid, its fleet and fault profile, per-tag records included), with and
  // without ARQ + fallback + failover. Pinning recorded values, rather than
  // comparing two runs of the same build, catches any change to poll order
  // or to an accumulator under faults.
  EXPECT_EQ(NetworkCoordinator(test::net_resilience_config(false)).run().digest(),
            0x755564557b3514f2ULL)
      << "x=1 plain";
  EXPECT_EQ(NetworkCoordinator(test::net_resilience_config(true)).run().digest(),
            0x6db00b808141881dULL)
      << "x=1 arq";
}

TEST(Resilience, ElevenMbpsWifiOnlyFallbackDigestPinned) {
  // net_resilience's ARQ fleet at fault intensity 1, but polls start at
  // 11 Mbps and the fallback ladder stops at 1 Mbps (no ZigBee rung). The
  // other pins start at 2 Mbps, so this is the one fleet whose polls read
  // the 11 and 5.5 Mbps rungs and never the ZigBee one: it pins the
  // reachable-rung link build at its other end.
  NetworkConfig cfg = test::net_resilience_config(true);
  cfg.rate = itb::wifi::DsssRate::k11Mbps;
  cfg.fallback.enable_zigbee_fallback = false;
  const NetworkStats s = NetworkCoordinator(cfg).run();
  EXPECT_GT(s.fallback_polls, 0u);
  EXPECT_GT(s.failover_polls, 0u);
  EXPECT_EQ(s.digest(), 0xd8ad45700d13979bULL);
}

}  // namespace
}  // namespace itb::sim
