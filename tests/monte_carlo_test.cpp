// Tests for the parallel Monte-Carlo sweep core: bit-identical results
// across thread counts (the counter-based RNG substream guarantee), the
// substream seed function itself, and the parallel_for primitive.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ble/channel_map.h"
#include "core/monte_carlo.h"
#include "core/parallel.h"

namespace itb::core {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<int> order;
  // One worker runs inline, so the unguarded push_back cannot race.
  // detlint: allow(parallel-capture)
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  // Zero iterations: the body never runs.  detlint: allow(parallel-capture)
  parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesWorkerException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionOnAnyIndexIsRethrownAfterEveryWorkerJoins) {
  // The caller is worker 0, so the throwing index may land on the calling
  // thread or on a spawned one: throw from each index in turn. Bodies that
  // do not throw sleep, so an early rethrow would find some still running.
  constexpr std::size_t n = 8;
  for (std::size_t bad = 0; bad < n; ++bad) {
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    EXPECT_THROW(parallel_for(n, 4,
                              [&](std::size_t i) {
                                running.fetch_add(1);
                                if (i == bad) {
                                  running.fetch_sub(1);
                                  throw std::runtime_error("boom");
                                }
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(2));
                                finished.fetch_add(1);
                                running.fetch_sub(1);
                              }),
                 std::runtime_error)
        << "bad index " << bad;
    EXPECT_EQ(running.load(), 0) << "bad index " << bad;
    EXPECT_LT(finished.load(), static_cast<int>(n)) << "bad index " << bad;
  }
}

TEST(ParallelFor, FewerIndicesThanWorkers) {
  for (std::size_t n = 1; n <= 3; ++n) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n << " " << i;
  }
}

TEST(ParallelFor, NestedCallCoversAllItsIndices) {
  constexpr std::size_t outer = 4;
  constexpr std::size_t inner = 50;
  std::vector<std::atomic<int>> hits(outer * inner);
  parallel_for(outer, 2, [&](std::size_t o) {
    parallel_for(inner, 3,
                 [&](std::size_t i) { hits[o * inner + i].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1) << k;
}

TEST(TrialSeed, SubstreamsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t point = 0; point < 32; ++point) {
    for (std::uint64_t trial = 0; trial < 64; ++trial) {
      seen.insert(trial_seed(2024, point, trial));
    }
  }
  EXPECT_EQ(seen.size(), 32u * 64u);
  // Different sweep seeds decorrelate the whole grid.
  EXPECT_NE(trial_seed(1, 0, 0), trial_seed(2, 0, 0));
}

TEST(MonteCarlo, PerVsSnrBitIdenticalAcrossThreadCounts) {
  MonteCarloConfig cfg;
  cfg.trials_per_point = 6;
  cfg.psdu_bytes = 16;
  const std::vector<double> grid{-4.0, 0.0, 6.0};

  cfg.num_threads = 1;
  const auto one = per_vs_snr(cfg, grid);
  cfg.num_threads = 2;
  const auto two = per_vs_snr(cfg, grid);
  cfg.num_threads = 8;
  const auto eight = per_vs_snr(cfg, grid);

  ASSERT_EQ(one.size(), grid.size());
  ASSERT_EQ(two.size(), grid.size());
  ASSERT_EQ(eight.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(one[i].per_monte_carlo, two[i].per_monte_carlo) << "point " << i;
    EXPECT_EQ(one[i].per_monte_carlo, eight[i].per_monte_carlo) << "point " << i;
    EXPECT_EQ(one[i].per_closed_form, eight[i].per_closed_form);
    EXPECT_EQ(one[i].trials, eight[i].trials);
    EXPECT_EQ(one[i].snr_db, grid[i]);
  }
}

TEST(MonteCarlo, RepeatedRunsAreDeterministic) {
  MonteCarloConfig cfg;
  cfg.trials_per_point = 5;
  cfg.psdu_bytes = 16;
  cfg.num_threads = 4;
  const std::vector<double> grid{2.0};
  const auto a = per_vs_snr(cfg, grid);
  const auto b = per_vs_snr(cfg, grid);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].per_monte_carlo, b[0].per_monte_carlo);
}

TEST(MonteCarlo, ZeroTrialsPerPointThrows) {
  // 0 failures over 0 trials has no PER; the sweep used to return NaN.
  MonteCarloConfig cfg;
  cfg.trials_per_point = 0;
  EXPECT_THROW(per_vs_snr(cfg, {4.0}), std::invalid_argument);
}

TEST(MonteCarlo, ImplantWaterfallMatchesReferenceGenerator) {
  // The implant sweep's PERs with the Box-Muller generator and a cos/sin
  // per sample in the CFO/phase-noise stage, measured with this config:
  // 400 trials per point, seed 2024. Swapping in the ziggurat and the
  // phasor recurrence changes every draw but must not move the physics,
  // so each PER has to land in the 99.9% Wilson interval around them.
  struct Reference {
    double snr_db;
    double per;
  };
  constexpr Reference kReference[] = {{4.0, 0.95}, {6.0, 0.40}, {8.0, 0.0525}};
  constexpr double kTrials = 400.0;
  constexpr double kZ = 3.2905;  // two-sided 99.9%

  MonteCarloConfig cfg;
  cfg.rate = itb::wifi::DsssRate::k11Mbps;
  cfg.psdu_bytes = 31;
  cfg.trials_per_point = 400;
  cfg.seed = 2024;
  cfg.impairments = itb::channel::implant_tissue_preset(11e6);
  std::vector<double> grid;
  for (const Reference& r : kReference) grid.push_back(r.snr_db);
  const auto pts = per_vs_snr(cfg, grid);
  ASSERT_EQ(pts.size(), grid.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double p = kReference[i].per;
    const double z2n = kZ * kZ / kTrials;
    const double centre = (p + z2n / 2.0) / (1.0 + z2n);
    const double half = kZ / (1.0 + z2n) *
                        std::sqrt(p * (1.0 - p) / kTrials + z2n / (4.0 * kTrials));
    EXPECT_GE(pts[i].per_monte_carlo, centre - half) << pts[i].snr_db << " dB";
    EXPECT_LE(pts[i].per_monte_carlo, centre + half) << pts[i].snr_db << " dB";
  }
}

TEST(MonteCarlo, ImplantFailureCountsPinned) {
  // Failures per point of one 11 Mbps implant sweep, recorded from the
  // receiver that derotated with a cos/sin per chip, correlated CCK against
  // cos/sin-built codewords and decided with arg. The phasor, quarter-turn
  // and sign-test receiver must make the same decisions.
  MonteCarloConfig cfg;
  cfg.rate = itb::wifi::DsssRate::k11Mbps;
  cfg.psdu_bytes = 31;
  cfg.trials_per_point = 25;
  cfg.seed = 7;
  cfg.num_threads = 2;
  cfg.impairments = itb::channel::make_impairment_preset(
      itb::channel::ImpairmentPreset::kImplantTissue, 11e6,
      itb::ble::wifi_channel_hz(11));
  std::vector<double> grid;
  for (int snr = 2; snr <= 16; snr += 2) grid.push_back(snr);
  const std::vector<std::size_t> kPinned{25, 24, 8, 1, 0, 0, 0, 0};

  const auto pts = per_vs_snr(cfg, grid);
  ASSERT_EQ(pts.size(), kPinned.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].no_sync + pts[i].header_fail + pts[i].payload_fail,
              kPinned[i])
        << pts[i].snr_db << " dB";
    EXPECT_EQ(pts[i].per_monte_carlo * 25.0, static_cast<double>(kPinned[i]));
  }
}

TEST(MonteCarlo, FailureStagesSumToFailuresAtAnyThreadCount) {
  MonteCarloConfig cfg;
  cfg.rate = itb::wifi::DsssRate::k11Mbps;
  cfg.psdu_bytes = 31;
  cfg.trials_per_point = 12;
  cfg.seed = 404;
  cfg.impairments = itb::channel::ward_mobility_preset(11e6);
  const std::vector<double> grid{-2.0, 2.0, 6.0, 10.0};

  std::vector<std::vector<PerPoint>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    cfg.num_threads = threads;
    runs.push_back(per_vs_snr(cfg, grid));
  }
  std::size_t stages_seen = 0;
  for (const PerPoint& p : runs[0]) {
    const std::size_t failures = p.no_sync + p.header_fail + p.payload_fail;
    EXPECT_EQ(static_cast<double>(failures) / static_cast<double>(p.trials),
              p.per_monte_carlo)
        << p.snr_db << " dB";
    stages_seen |= (p.no_sync > 0 ? 1u : 0u) | (p.payload_fail > 0 ? 2u : 0u);
  }
  // The grid reaches both the no-sync and the payload-failure regime.
  EXPECT_EQ(stages_seen, 3u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(runs[r][i].per_monte_carlo, runs[0][i].per_monte_carlo);
      EXPECT_EQ(runs[r][i].no_sync, runs[0][i].no_sync);
      EXPECT_EQ(runs[r][i].header_fail, runs[0][i].header_fail);
      EXPECT_EQ(runs[r][i].payload_fail, runs[0][i].payload_fail);
    }
  }
}

TEST(MonteCarlo, SeedChangesTheDraw) {
  // With few trials at a waterfall SNR the empirical PER is seed-sensitive;
  // this only checks the seed is actually plumbed through, so accept either
  // equal or different PER but require the engine to consume the new seed
  // (trial_seed must differ).
  EXPECT_NE(trial_seed(2024, 0, 0), trial_seed(2025, 0, 0));
}

}  // namespace
}  // namespace itb::core
