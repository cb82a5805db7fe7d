// Tests for the deterministic spatial-hash grid (src/sim/spatial_hash.*)
// and the build-path fixes that ride with it: the grid must be
// *bit-identical* to the brute-force nearest_index() scan — including
// lowest-index tie-breaks — on every placement the simulator generates;
// nearest_index() must reject empty node sets; ward helper trimming must
// select centered strides; and the network digests the grid-backed build
// produces must match the pre-grid values at 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dsp/rng.h"
#include "fleet_configs.h"
#include "sim/network.h"
#include "sim/spatial_hash.h"
#include "sim/topology.h"

namespace itb::sim {
namespace {

/// Reference semantics for nearest-with-exclusion: strict < scan in index
/// order, skipping one index (what the grid's `exclude` must reproduce).
std::size_t brute_nearest(const std::vector<Vec2>& nodes, const Vec2& p,
                          std::size_t exclude = SpatialHashGrid::npos) {
  std::size_t best = SpatialHashGrid::npos;
  Real best_d = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i == exclude) continue;
    const Real d = distance_m(nodes[i], p);
    if (best == SpatialHashGrid::npos || d < best_d) {
      best = i;
      best_d = d;
    }
  }
  return best;
}

void expect_grid_matches_brute(const std::vector<Vec2>& nodes,
                               const std::vector<Vec2>& queries) {
  const SpatialHashGrid grid(nodes);
  for (const Vec2& q : queries) {
    const std::size_t want = brute_nearest(nodes, q);
    const std::size_t got = grid.nearest(q);
    ASSERT_EQ(got, want) << "query (" << q.x << ", " << q.y << ")";
    // Next-nearest via exclusion must agree too (AP failover path).
    const std::size_t want2 = brute_nearest(nodes, q, want);
    ASSERT_EQ(grid.nearest(q, want), want2)
        << "exclusion query (" << q.x << ", " << q.y << ")";
  }
}

TEST(SpatialHashGrid, MatchesBruteForceOnRandomDisk) {
  itb::dsp::Xoshiro256 rng(0xD15C0);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 500u}) {
    std::vector<Vec2> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Real r = 30.0 * std::sqrt(rng.uniform());
      const Real th = rng.uniform(0.0, itb::dsp::kTwoPi);
      nodes.push_back({30.0 + r * std::cos(th), 30.0 + r * std::sin(th)});
    }
    std::vector<Vec2> queries;
    for (std::size_t i = 0; i < 200; ++i) {
      // Half inside the disk, half well outside the bounding box (the
      // virtual-cell path).
      const Real spread = i % 2 == 0 ? 60.0 : 300.0;
      queries.push_back({rng.uniform(-spread * 0.5, spread),
                         rng.uniform(-spread * 0.5, spread)});
    }
    expect_grid_matches_brute(nodes, queries);
  }
}

TEST(SpatialHashGrid, MatchesBruteForceOnWardPlacements) {
  // The exact node sets the coordinator builds grids over: ward helpers
  // (one per room) and corridor APs (collinear midline — the degenerate
  // 1-D cell split), queried at every tag.
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kHospitalWard;
  cfg.num_tags = 2000;
  cfg.num_helpers = 0;
  cfg.num_aps = 125;
  cfg.seed = 2026;
  const Placement p = generate_topology(cfg);
  expect_grid_matches_brute(p.helpers, p.tags);
  expect_grid_matches_brute(p.aps, p.tags);
}

TEST(SpatialHashGrid, TieBreaksToLowestIndex) {
  // Queries at the exact center of a node square are equidistant from all
  // four corners: the scan keeps the lowest index, and so must the grid.
  std::vector<Vec2> nodes;
  for (std::size_t row = 0; row < 8; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      nodes.push_back({static_cast<Real>(col), static_cast<Real>(row)});
    }
  }
  std::vector<Vec2> queries;
  for (std::size_t row = 0; row + 1 < 8; ++row) {
    for (std::size_t col = 0; col + 1 < 8; ++col) {
      queries.push_back(
          {static_cast<Real>(col) + 0.5, static_cast<Real>(row) + 0.5});
      // Midpoints of lattice edges tie two nodes; lattice points tie one
      // node at distance zero.
      queries.push_back({static_cast<Real>(col) + 0.5, static_cast<Real>(row)});
      queries.push_back({static_cast<Real>(col), static_cast<Real>(row)});
    }
  }
  expect_grid_matches_brute(nodes, queries);
}

TEST(SpatialHashGrid, DuplicateNodesResolveToLowestIndex) {
  // Coincident nodes are the hardest tie: every query distance is equal.
  std::vector<Vec2> nodes = {{5.0, 5.0}, {1.0, 1.0}, {5.0, 5.0},
                             {1.0, 1.0}, {5.0, 5.0}};
  const SpatialHashGrid grid(nodes);
  EXPECT_EQ(grid.nearest({4.9, 5.0}), 0u);
  EXPECT_EQ(grid.nearest({4.9, 5.0}, 0), 2u);
  EXPECT_EQ(grid.nearest({1.1, 1.0}), 1u);
  EXPECT_EQ(grid.nearest({1.1, 1.0}, 1), 3u);
  expect_grid_matches_brute(nodes, {{0.0, 0.0}, {3.0, 3.0}, {9.0, 9.0}});
}

TEST(SpatialHashGrid, DegenerateInputs) {
  const SpatialHashGrid empty{std::vector<Vec2>{}};
  EXPECT_EQ(empty.nearest({0.0, 0.0}), SpatialHashGrid::npos);

  const SpatialHashGrid one{std::vector<Vec2>{{2.0, 3.0}}};
  EXPECT_EQ(one.nearest({100.0, -50.0}), 0u);
  EXPECT_EQ(one.nearest({0.0, 0.0}, 0), SpatialHashGrid::npos);

  // All nodes coincident (zero-area bounding box).
  const SpatialHashGrid same{std::vector<Vec2>{{7.0, 7.0}, {7.0, 7.0}}};
  EXPECT_EQ(same.nearest({7.0, 7.0}), 0u);
  EXPECT_EQ(same.nearest({7.0, 7.0}, 0), 1u);
}

TEST(SpatialHashGrid, CollinearNodes) {
  // Corridor-midline APs: zero height, cells split along one axis only.
  std::vector<Vec2> nodes;
  for (std::size_t i = 0; i < 100; ++i) {
    nodes.push_back({static_cast<Real>(i) * 1.7, 4.0});
  }
  itb::dsp::Xoshiro256 rng(0xA11EE);
  std::vector<Vec2> queries;
  for (std::size_t i = 0; i < 300; ++i) {
    queries.push_back({rng.uniform(-20.0, 200.0), rng.uniform(-40.0, 40.0)});
  }
  expect_grid_matches_brute(nodes, queries);
}

// --- build-path fixes --------------------------------------------------------

TEST(Topology, NearestIndexThrowsOnEmptyNodeSet) {
  EXPECT_THROW(nearest_index({}, {0.0, 0.0}), std::invalid_argument);
}

TEST(Topology, WardHelperTrimmingIsCentered) {
  TopologyConfig full;
  full.kind = TopologyKind::kHospitalWard;
  full.num_tags = 96;  // 24 rooms at 4 beds/room
  full.num_helpers = 0;
  full.seed = 7;
  const Placement all = generate_topology(full);
  ASSERT_EQ(all.helpers.size(), 24u);

  TopologyConfig trimmed = full;
  trimmed.num_helpers = 6;
  const Placement few = generate_topology(trimmed);
  ASSERT_EQ(few.helpers.size(), 6u);
  // Helper i sits at the center of the i-th of 6 equal room spans:
  // index (2i+1)*24/12 = 2, 6, 10, 14, 18, 22 — never room 0, no bias
  // toward the corridor start.
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t want = (2 * i + 1) * 24 / 12;
    EXPECT_DOUBLE_EQ(few.helpers[i].x, all.helpers[want].x) << "helper " << i;
    EXPECT_DOUBLE_EQ(few.helpers[i].y, all.helpers[want].y) << "helper " << i;
  }
}

// --- digest preservation across the build rework -----------------------------

NetworkConfig bench_config(std::size_t tags) {
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kHospitalWard;
  cfg.topology.num_tags = tags;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = std::max<std::size_t>(6, (tags + 3) / 16);
  cfg.detector_sensitivity_dbm = -49.0;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 8;
  cfg.seed = 2026;
  cfg.keep_per_tag = true;
  return cfg;
}

TEST(NetworkScaleDigest, PinnedAcrossThreadCounts) {
  // The BM_NetScale 100/1000/5000-tag digests, per-tag records included,
  // pinned to recorded values. The grid, the per-channel preset cache, the
  // parallel build and the shard-block reduction must keep them
  // bit-identical at any thread count.
  const struct {
    std::size_t tags;
    std::uint64_t digest;
  } pins[] = {
      {100, 0x7c01877fd021f6b4ULL},
      {1000, 0xc1bedc3d6748aa7cULL},
      {5000, 0xf338144ea9fbce23ULL},
  };
  for (const auto& pin : pins) {
    NetworkConfig cfg = bench_config(pin.tags);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      cfg.num_threads = threads;
      EXPECT_EQ(NetworkCoordinator(cfg).run().digest(), pin.digest)
          << pin.tags << " tags, " << threads << " threads";
    }
  }
}

TEST(NetworkScaleDigest, StreamingPinned) {
  // keep_per_tag=false is the path every fleet of 100k+ tags runs. Pin it
  // to recorded values: the 100k-tag point of BENCH_net_scale.json, and the
  // net_resilience intensity-1 fleet with ARQ, fallback and failover.
  NetworkConfig scale = bench_config(100000);
  scale.keep_per_tag = false;
  NetworkConfig faulted = test::net_resilience_config(true);
  faulted.keep_per_tag = false;
  for (const std::size_t threads : {1u, 2u}) {
    scale.num_threads = threads;
    EXPECT_EQ(NetworkCoordinator(scale).run().digest(), 0xdd60aa7e1da5d560ULL)
        << "100k tags, " << threads << " threads";
    faulted.num_threads = threads;
    EXPECT_EQ(NetworkCoordinator(faulted).run().digest(),
              0x5dac8d58b6efe5f2ULL)
        << "faulted ARQ fleet, " << threads << " threads";
  }
}

TEST(NetworkScaleDigest, StreamingStatsAreThreadCountInvariant) {
  // keep_per_tag=false takes the streaming per-shard aggregation path; its
  // digest must be its own pure function of the config.
  NetworkConfig cfg = bench_config(1000);
  cfg.keep_per_tag = false;
  cfg.num_threads = 1;
  const NetworkStats base = NetworkCoordinator(cfg).run();
  EXPECT_TRUE(base.per_tag.empty());
  for (const std::size_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    EXPECT_EQ(NetworkCoordinator(cfg).run().digest(), base.digest())
        << threads << " threads";
  }
}

TEST(NetworkScaleDigest, StreamingCountersMatchPerTagPath) {
  // keep_per_tag must not change the fleet result: the streamed counters
  // equal the per-tag sums, and the two results differ only in per_tag.
  // Besides the fault-free ward, three faulted fleets between them drive
  // every poll counter above zero: the net_resilience ARQ fleet; the same
  // fleet with backoff, a tight retry budget and quick rate probing (drops,
  // backoff, upshifts); and a fleet whose budget is NaN, so every link is
  // down.
  NetworkConfig arq = test::net_resilience_config(true);
  NetworkConfig strained = arq;
  strained.arq.backoff_base_slots = 1;
  strained.arq.max_attempts = 3;
  strained.arq.retry_budget = 2;
  strained.fallback.up_after_successes = 2;
  NetworkConfig dead = arq;
  dead.topology.num_tags = 300;
  dead.faults = {};
  dead.tag_medium_loss_db = std::numeric_limits<Real>::quiet_NaN();

  std::array<bool, kPollCounters.size()> seen_nonzero{};
  for (NetworkConfig cfg : {bench_config(1000), arq, strained, dead}) {
    cfg.keep_per_tag = true;
    NetworkStats kept = NetworkCoordinator(cfg).run();
    cfg.keep_per_tag = false;
    const NetworkStats streamed = NetworkCoordinator(cfg).run();

    PollCounters per_tag_sum;
    for (const TagStats& t : kept.per_tag) per_tag_sum += t;
    for (std::size_t c = 0; c < kPollCounters.size(); ++c) {
      const auto field = kPollCounters[c].field;
      EXPECT_EQ(streamed.*field, kept.*field) << "counter " << c;
      EXPECT_EQ(kept.*field, per_tag_sum.*field) << "counter " << c;
      seen_nonzero[c] = seen_nonzero[c] || kept.*field != 0;
    }
    ASSERT_EQ(streamed.channels.size(), kept.channels.size());
    for (std::size_t g = 0; g < kept.channels.size(); ++g) {
      EXPECT_EQ(streamed.channels[g].replies, kept.channels[g].replies);
      EXPECT_EQ(streamed.channels[g].collisions, kept.channels[g].collisions);
    }
    // One reduction: keep_per_tag only adds the per-tag records, so the
    // rest of the result is bit-identical.
    kept.per_tag.clear();
    EXPECT_EQ(kept.digest(), streamed.digest());
  }
  for (std::size_t c = 0; c < kPollCounters.size(); ++c) {
    EXPECT_TRUE(seen_nonzero[c])
        << "counter " << c << " stayed 0 on every fleet: the match is vacuous";
  }
}

}  // namespace
}  // namespace itb::sim
