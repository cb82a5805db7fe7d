// Tests for the multi-tag network simulator (src/sim/): RNG substreams and
// the poll walk's time-order guard, topology generators, and the
// NetworkCoordinator's FDMA x TDMA behavior — including the acceptance
// criterion that a >= 1000-tag, >= 3-channel run is bit-identical at 1, 2,
// and 8 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "channel/link.h"
#include "sim/entity_stream.h"
#include "sim/network.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace itb::sim {
namespace {

// --- entity streams ----------------------------------------------------------

TEST(EntityStream, SubstreamsAreScheduleIndependent) {
  // The same (seed, entity, counter) coordinates give the same draws no
  // matter what other streams were consumed first.
  auto a = entity_stream(42, 7, 3);
  auto burn = entity_stream(42, 6, 0);
  (void)burn.uniform();
  auto b = entity_stream(42, 7, 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
  auto c = entity_stream(42, 7, 4);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

// --- latency histogram -------------------------------------------------------

TEST(LatencyHistogram, QuantilesAreMonotoneAndMergeIsExact) {
  LatencyHistogram h1, h2;
  for (int i = 1; i <= 100; ++i) h1.record(100.0 * i);
  for (int i = 1; i <= 100; ++i) h2.record(5000.0 * i);
  LatencyHistogram merged = h1;
  merged.merge(h2);
  EXPECT_EQ(merged.total, 200u);
  EXPECT_DOUBLE_EQ(merged.sum_us, h1.sum_us + h2.sum_us);
  EXPECT_LE(merged.quantile_us(0.5), merged.quantile_us(0.9));
  EXPECT_LE(merged.quantile_us(0.9), merged.quantile_us(0.99));
  EXPECT_GE(merged.max_us, 500000.0);
  // The p50 bin must actually contain the median sample.
  EXPECT_GE(merged.quantile_us(0.5), 5000.0);
}

TEST(LatencyHistogram, QuantileZeroIsTheLowestSample) {
  // q = 0 used to target rank 0 and report bin 0's edge even when bin 0
  // held no sample.
  LatencyHistogram h;
  h.record(1000.0);
  EXPECT_EQ(h.quantile_us(0.0), h.quantile_us(1.0));
  EXPECT_GT(h.quantile_us(0.0), 1000.0);
}

// --- topology ----------------------------------------------------------------

TEST(Topology, GridIsDeterministicAndInsideExtent) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kGrid;
  cfg.num_tags = 37;
  cfg.extent_m = 15.0;
  const Placement a = generate_topology(cfg);
  const Placement b = generate_topology(cfg);
  ASSERT_EQ(a.tags.size(), 37u);
  for (std::size_t i = 0; i < a.tags.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tags[i].x, b.tags[i].x);
    EXPECT_DOUBLE_EQ(a.tags[i].y, b.tags[i].y);
    EXPECT_GE(a.tags[i].x, 0.0);
    EXPECT_LE(a.tags[i].x, 15.0);
    EXPECT_GE(a.tags[i].y, 0.0);
    EXPECT_LE(a.tags[i].y, 15.0);
  }
}

TEST(Topology, DiskStaysInsideRadiusAndSeedMatters) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kUniformDisk;
  cfg.num_tags = 200;
  cfg.extent_m = 10.0;
  cfg.seed = 5;
  const Placement a = generate_topology(cfg);
  ASSERT_EQ(a.tags.size(), 200u);
  const Vec2 centre{10.0, 10.0};
  for (const Vec2& p : a.tags) {
    EXPECT_LE(distance_m(p, centre), 10.0 + 1e-9);
  }
  cfg.seed = 6;
  const Placement b = generate_topology(cfg);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.tags.size(); ++i) {
    if (a.tags[i].x != b.tags[i].x) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Topology, HospitalWardPlacesAllTagsAndRoomHelpers) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kHospitalWard;
  cfg.num_tags = 35;
  cfg.num_helpers = 0;  // 0 = one per room
  const Placement p = generate_topology(cfg);
  EXPECT_EQ(p.tags.size(), 35u);
  EXPECT_EQ(p.helpers.size(), 9u);  // ceil(35/kBedsPerRoom) rooms
  EXPECT_EQ(p.aps.size(), cfg.num_aps);
  // Every tag has a helper within room range (wall-mount coverage).
  for (const Vec2& tag : p.tags) {
    const std::size_t h = nearest_index(p.helpers, tag);
    EXPECT_LT(distance_m(p.helpers[h], tag), kRoomPitchM);
  }
}

TEST(Topology, NearestIndexPrefersLowestOnTies) {
  const std::vector<Vec2> nodes = {{0.0, 0.0}, {2.0, 0.0}};
  EXPECT_EQ(nearest_index(nodes, {1.0, 0.0}), 0u);
  EXPECT_EQ(nearest_index(nodes, {1.9, 0.0}), 1u);
}

// --- network coordinator -----------------------------------------------------

NetworkConfig small_ward_config() {
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kHospitalWard;
  cfg.topology.num_tags = 60;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = 3;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 6;
  cfg.seed = 2026;
  cfg.num_threads = 1;
  return cfg;
}

TEST(Network, PollsEveryTagEveryRound) {
  const NetworkConfig cfg = small_ward_config();
  const NetworkCoordinator net(cfg);
  const NetworkStats s = net.run();
  EXPECT_EQ(s.num_tags, 60u);
  EXPECT_EQ(s.num_channels, 3u);
  EXPECT_EQ(s.queries_sent, 60u * 6u);
  EXPECT_GT(s.replies_received, 0u);
  EXPECT_GT(s.aggregate_goodput_kbps, 0.0);
  EXPECT_FALSE(std::isnan(s.aggregate_goodput_kbps));
  // Every poll resolves to exactly one outcome.
  EXPECT_EQ(s.queries_sent, s.replies_received + s.downlink_misses +
                                s.reservation_denied + s.collisions +
                                s.decode_failures);
  // FDMA balances tags across the three channels to within one.
  ASSERT_EQ(s.channels.size(), 3u);
  for (const ChannelStats& ch : s.channels) {
    EXPECT_NEAR(static_cast<double>(ch.tags), 20.0, 1.0);
  }
  EXPECT_GT(s.query_latency.total, 0u);
  EXPECT_GT(s.mean_harvest_duty, 0.0);
  EXPECT_GT(s.mean_tag_power_uw, 0.0);
}

TEST(Network, ReplyTyingNextQueryThrows) {
  // With a vanishing advertising interval the reply offset (query + adv/2)
  // rounds to the slot length (query + adv): a reply lands exactly on the
  // next query. Walking the slots in order would then handle the two in
  // the wrong order, so run() must refuse instead of reordering silently.
  NetworkConfig cfg = small_ward_config();
  cfg.detector_sensitivity_dbm = -90.0;  // every tag hears its query
  cfg.polling.advertising_interval_ms = 1e-300;
  const NetworkCoordinator net(cfg);
  EXPECT_THROW((void)net.run(), std::logic_error);
}

TEST(Network, RunIsReproducible) {
  const NetworkConfig cfg = small_ward_config();
  const NetworkCoordinator net(cfg);
  EXPECT_EQ(net.run().digest(), net.run().digest());
}

TEST(Network, BitIdenticalAcrossThreadCounts1000Tags) {
  // Acceptance criterion: >= 1000 tags, >= 3 Wi-Fi channels, full results
  // (including every per-tag counter) bit-identical at 1, 2 and 8 threads.
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kHospitalWard;
  cfg.topology.num_tags = 1000;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = 4;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 4;
  cfg.shard_tags = 64;  // many shards so threading actually interleaves
  cfg.seed = 77;

  cfg.num_threads = 1;
  // Throughput telemetry only; never feeds results.
  // detlint: allow(wall-clock)
  const auto t0 = std::chrono::steady_clock::now();
  const NetworkStats s1 = NetworkCoordinator(cfg).run();
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)  // detlint: allow(wall-clock)
                         .count();
  EXPECT_LT(sec, 10.0);  // budget-fidelity path must stay fast

  cfg.num_threads = 2;
  const NetworkStats s2 = NetworkCoordinator(cfg).run();
  cfg.num_threads = 8;
  const NetworkStats s8 = NetworkCoordinator(cfg).run();

  ASSERT_EQ(s1.per_tag.size(), 1000u);
  EXPECT_EQ(s1.digest(), s2.digest());
  EXPECT_EQ(s1.digest(), s8.digest());
  EXPECT_EQ(s1.queries_sent, 4000u);
}

TEST(Network, CtsToSelfBeatsNoReservationOnBusyChannel) {
  NetworkConfig cfg = small_ward_config();
  cfg.ambient_busy_probability = 0.5;
  cfg.reservation = mac::ReservationScheme::kNone;
  const NetworkStats none = NetworkCoordinator(cfg).run();
  cfg.reservation = mac::ReservationScheme::kCtsToSelf;
  const NetworkStats cts = NetworkCoordinator(cfg).run();
  EXPECT_GT(none.collisions, 0u);
  EXPECT_EQ(cts.collisions, 0u);
  EXPECT_GT(cts.aggregate_goodput_kbps, none.aggregate_goodput_kbps);
}

TEST(Network, SsbMirrorLeakageRaisesVictimNoiseFloor) {
  // BLE channel 38 sits at 2426 MHz. A group backscattering onto Wi-Fi
  // channel 1 (2412 MHz) leaves its suppressed mirror at 2440 MHz — right
  // on top of Wi-Fi channel 7 (2442 MHz). The channel-7 group must see a
  // leakage noise rise; with the mirror fully suppressed it must not.
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 40;
  cfg.topology.extent_m = 6.0;  // short links: strong replies, strong mirror
  cfg.topology.num_helpers = 16;
  cfg.topology.num_aps = 2;
  cfg.ble_channel = 38;
  cfg.wifi_channels = {1, 7};
  cfg.rounds = 2;
  const NetworkCoordinator net(cfg);
  ASSERT_EQ(net.channel_plan().size(), 2u);
  const double rise_on_7 = net.channel_plan()[1].leakage_noise_rise_db;
  EXPECT_GT(rise_on_7, 0.0);
  // Channel 1's own victim mirror (2 * 2426 - 2442 = 2410 MHz) also lands
  // near it, so both see some rise; the test pins the asymmetric physics
  // by checking suppression kills it.
  NetworkConfig clean = cfg;
  clean.ssb_sideband_suppression_db = 200.0;
  const NetworkCoordinator quiet(clean);
  EXPECT_LT(quiet.channel_plan()[1].leakage_noise_rise_db, 1e-9);
  EXPECT_LT(quiet.channel_plan()[1].leakage_noise_rise_db, rise_on_7);
}

TEST(Network, LeakageDegradesVictimPer) {
  // Same geometry twice; the only difference is the mirror suppression.
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 40;
  cfg.topology.extent_m = 6.0;
  cfg.topology.num_helpers = 16;
  cfg.topology.num_aps = 2;
  cfg.wifi_channels = {1, 7};
  cfg.rounds = 2;
  cfg.ssb_sideband_suppression_db = 6.0;  // poor SSB: strong mirror
  const NetworkCoordinator leaky(cfg);
  cfg.ssb_sideband_suppression_db = 200.0;
  const NetworkCoordinator clean(cfg);
  // Victim-channel tags (group 1: odd tag ids) decode worse under leakage.
  const auto& lk = leaky.links();
  const auto& cl = clean.links();
  double leaky_per = 0.0, clean_per = 0.0;
  for (std::size_t t = 1; t < lk.size(); t += 2) {
    leaky_per += lk[t].reply_per;
    clean_per += cl[t].reply_per;
  }
  EXPECT_GT(leaky_per, clean_per);
}

TEST(Network, EmptyFleetYieldsZeroesNotNan) {
  NetworkConfig cfg;
  cfg.topology.num_tags = 0;
  cfg.topology.num_helpers = 1;
  cfg.topology.num_aps = 1;
  const NetworkStats s = NetworkCoordinator(cfg).run();
  EXPECT_EQ(s.num_tags, 0u);
  EXPECT_EQ(s.queries_sent, 0u);
  EXPECT_DOUBLE_EQ(s.aggregate_goodput_kbps, 0.0);
  EXPECT_FALSE(std::isnan(s.mean_tag_goodput_kbps));
  EXPECT_FALSE(std::isnan(s.mean_harvest_duty));

  // Zero rounds: tags present, no air time spent.
  NetworkConfig idle = small_ward_config();
  idle.rounds = 0;
  const NetworkStats z = NetworkCoordinator(idle).run();
  EXPECT_EQ(z.queries_sent, 0u);
  EXPECT_DOUBLE_EQ(z.aggregate_goodput_kbps, 0.0);
  EXPECT_DOUBLE_EQ(z.mean_tag_goodput_kbps, 0.0);
}

TEST(Network, RejectsDegenerateConfigs) {
  NetworkConfig cfg;
  cfg.wifi_channels = {};
  EXPECT_THROW(NetworkCoordinator{cfg}, std::invalid_argument);

  NetworkConfig no_infra;
  no_infra.topology.kind = TopologyKind::kGrid;
  no_infra.topology.num_tags = 4;
  no_infra.topology.num_helpers = 0;  // grid honours 0 as literally none
  no_infra.topology.num_aps = 0;
  EXPECT_THROW(NetworkCoordinator{no_infra}, std::invalid_argument);
}

TEST(Network, MoreTagsStretchTailLatency) {
  // TDMA: a bigger fleet waits longer per round -> p99 latency grows.
  NetworkConfig small = small_ward_config();
  small.topology.num_tags = 30;
  NetworkConfig big = small;
  big.topology.num_tags = 300;
  const NetworkStats a = NetworkCoordinator(small).run();
  const NetworkStats b = NetworkCoordinator(big).run();
  EXPECT_GT(b.query_latency.quantile_us(0.99),
            a.query_latency.quantile_us(0.99));
}

// --- link build: every stored SNR is the closed-form budget ---------------

/// The budget inputs the coordinator reads from its config.
itb::channel::BackscatterLinkConfig budget_config(const NetworkConfig& cfg,
                                                  Real helper_distance_m) {
  itb::channel::BackscatterLinkConfig b;
  b.ble_tx_power_dbm = cfg.ble_tx_power_dbm;
  b.tag_medium_loss_db = cfg.tag_medium_loss_db;
  b.rx_noise_figure_db = cfg.rx_noise_figure_db;
  b.pathloss.exponent = cfg.pathloss_exponent;
  b.ble_tag_distance_m = helper_distance_m;
  return b;
}

/// Nearest AP other than `primary` by raw distance, lowest index on ties.
std::size_t nearest_other_ap(const std::vector<Vec2>& aps, const Vec2& p,
                             std::size_t primary) {
  std::size_t best = aps.size();
  for (std::size_t a = 0; a < aps.size(); ++a) {
    if (a == primary) continue;
    if (best == aps.size() || distance_m(aps[a], p) < distance_m(aps[best], p)) {
      best = a;
    }
  }
  return best;
}

TEST(Network, LinkSnrIsBudgetAtClampedDistances) {
  // The fleet draws every outcome from the closed-form budget, so each
  // tag's stored SNR must be channel::backscatter_rssi() at the distances
  // to its nearest helper and AP, clamped to the 5 cm pathloss floor, bit
  // for bit; the failover SNR likewise at the nearest other AP.
  NetworkConfig cfg = small_ward_config();
  cfg.topology.num_aps = 4;
  cfg.ap_failover = true;
  const NetworkCoordinator net(cfg);
  const Placement p = generate_topology(cfg.topology);
  ASSERT_EQ(net.links().size(), p.tags.size());
  for (std::size_t t = 0; t < p.tags.size(); ++t) {
    const TagLink& link = net.links()[t];
    const Vec2& tag = p.tags[t];
    ASSERT_EQ(link.helper, nearest_index(p.helpers, tag));
    ASSERT_EQ(link.ap, nearest_index(p.aps, tag));
    const auto b = budget_config(
        cfg, std::max(distance_m(p.helpers[link.helper], tag), Real{0.05}));
    const Real d_ap = std::max(distance_m(p.aps[link.ap], tag), Real{0.05});
    EXPECT_EQ(link.snr_db, itb::channel::backscatter_rssi(b, d_ap).snr_db)
        << "tag " << t;

    ASSERT_TRUE(link.has_failover);
    ASSERT_EQ(link.failover_ap, nearest_other_ap(p.aps, tag, link.ap));
    const Real d_fo =
        std::max(distance_m(p.aps[link.failover_ap], tag), Real{0.05});
    EXPECT_EQ(link.failover_snr_db,
              itb::channel::backscatter_rssi(b, d_fo).snr_db)
        << "tag " << t;
  }
}

TEST(Network, FailoverInsideFiveCmFloorIsNearestOtherAp) {
  // A 2 cm grid puts every helper and AP inside the 5 cm pathloss floor,
  // so all budgets tie at 0.05 m. The failover AP is still the nearest
  // other AP by raw distance: for a tag at the right-hand column that is
  // AP 1, not the lowest-index AP 0.
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 9;
  cfg.topology.num_helpers = 1;
  cfg.topology.num_aps = 3;
  cfg.topology.extent_m = 0.02;
  cfg.ap_failover = true;
  const NetworkCoordinator net(cfg);
  const Placement p = generate_topology(cfg.topology);
  const Real floor_snr_db =
      itb::channel::backscatter_rssi(budget_config(cfg, 0.05), 0.05).snr_db;
  std::size_t not_lowest_index = 0;
  for (std::size_t t = 0; t < p.tags.size(); ++t) {
    const TagLink& link = net.links()[t];
    ASSERT_TRUE(link.has_failover);
    EXPECT_EQ(link.failover_ap, nearest_other_ap(p.aps, p.tags[t], link.ap))
        << "tag " << t;
    EXPECT_EQ(link.failover_snr_db, floor_snr_db) << "tag " << t;
    EXPECT_EQ(link.snr_db, floor_snr_db) << "tag " << t;
    const std::uint32_t lowest_other = link.ap == 0 ? 1 : 0;
    if (link.failover_ap != lowest_other) ++not_lowest_index;
  }
  EXPECT_GT(not_lowest_index, 0u);
}

}  // namespace
}  // namespace itb::sim
