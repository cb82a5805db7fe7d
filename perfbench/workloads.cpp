#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "backscatter/wifi_synth.h"
#include "ble/channel_map.h"
#include "channel/awgn.h"
#include "channel/impairments.h"
#include "core/arena.h"
#include "core/interscatter.h"
#include "core/monte_carlo.h"
#include "dsp/rng.h"
#include "dsp/units.h"
#include "obs/prof.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using itb::dsp::Real;
using itb::phy::Bytes;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulated wall time of one layer's calls.
struct Span {
  double seconds = 0.0;

  template <typename Fn>
  auto operator()(Fn&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    seconds += seconds_since(t0);
    return result;
  }
};

double ms_per(const Span& s, std::uint64_t n) {
  return n == 0 ? 0.0 : s.seconds * 1e3 / static_cast<double>(n);
}

/// Runs fn(i) for i = 0, 1, ... until `seconds` have passed (at least
/// `min_iters` times). Returns the iteration count and elapsed seconds.
template <typename Fn>
std::pair<std::size_t, double> loop_for(double seconds, std::size_t min_iters,
                                        Fn&& fn) {
  const auto t0 = Clock::now();
  std::size_t i = 0;
  double elapsed = 0.0;
  while (i < min_iters || elapsed < seconds) {
    fn(i++);
    elapsed = seconds_since(t0);
  }
  return {i, elapsed};
}

/// Independent input streams per workload, all keyed by the run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  return itb::dsp::splitmix64(seed ^ itb::dsp::splitmix64(salt));
}

Bytes random_psdu(itb::dsp::Xoshiro256& rng, std::size_t bytes) {
  Bytes psdu(bytes);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return psdu;
}

constexpr std::size_t kPsduBytes = 31;

// --- uplink_frame ------------------------------------------------------------

/// simulate_frame at 2 Mbps DQPSK on the default geometry, clean channel,
/// over 64 PSDUs (a pass takes about 60 ms).
class UplinkFrame final : public Workload {
 public:
  static constexpr std::size_t kInputs = 64;

  explicit UplinkFrame(std::uint64_t seed) {
    itb::dsp::Xoshiro256 rng(stream_seed(seed, 0x6672616D65ULL));
    psdus_.reserve(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      psdus_.push_back(random_psdu(rng, kPsduBytes));
    }
    scenario_.rate = itb::wifi::DsssRate::k2Mbps;
    scenario_.seed = rng.next_u64();
  }

  std::size_t inputs() const override { return kInputs; }
  std::size_t threads() const override { return 1; }
  std::size_t setup_units() const override { return 1; }

  void rebuild(std::size_t) override {
    sys_ = std::make_unique<itb::core::InterscatterSystem>(scenario_);
  }

  bool prepare() override { return !sys_->resolved_impairments().has_value(); }

  CallResult call(std::size_t i) override {
    const Bytes& psdu = psdus_[i % kInputs];
    const auto r = sys_->simulate_frame(psdu);
    return {1, r.payload_ok && r.decoded_psdu == psdu};
  }

  std::size_t count_calls() const override { return 200; }

  bool trace(double seconds, std::vector<Metric>& out) override {
    bool ok = true;
    const auto [plain_calls, plain_s] =
        loop_for(seconds / 2, 1, [&](std::size_t i) { ok &= call(i).ok; });

    Spans sp;
    const auto [traced_calls, traced_s] = loop_for(
        seconds / 2, 1, [&](std::size_t i) { ok &= traced_frame(i, sp); });

    const auto n = static_cast<std::uint64_t>(traced_calls);
    const double other_s =
        sp.total.seconds - sp.synth.seconds - sp.downconvert.seconds -
        sp.rx.seconds;
    out.push_back({"backscatter.synth_ms", ms_per(sp.synth, n), ""});
    out.push_back({"channel.downconvert_ms", ms_per(sp.downconvert, n), ""});
    out.push_back({"core.frame_other_ms", other_s * 1e3 / static_cast<double>(n), ""});
    out.push_back({"wifi.dsss_rx.frame_ms", ms_per(sp.rx, n), ""});
    out.push_back({"trace.overhead_per_s",
                   static_cast<double>(traced_calls) / traced_s -
                       static_cast<double>(plain_calls) / plain_s,
                   ""});
    return ok;
  }

  std::string info() const override {
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"inputs\": %zu, \"scenario_seed\": %llu",
                  kInputs, static_cast<unsigned long long>(scenario_.seed));
    return buf;
  }

 private:
  struct Spans {
    Span total, synth, downconvert, rx;
  };

  /// simulate_frame's pipeline, step for step, with each public call timed.
  /// "Other" is the untimed remainder: budget, 13x decimation, scaling and
  /// thermal noise.
  bool traced_frame(std::size_t i, Spans& sp) const {
    const Bytes& psdu = psdus_[i % kInputs];
    const auto t0 = Clock::now();

    itb::backscatter::WifiSynthConfig synth_cfg;
    synth_cfg.rate = scenario_.rate;
    synth_cfg.sample_rate_hz = 143e6;
    const Real wanted = sys_->shift_hz();
    const Real k = std::max(
        1.0, std::round(synth_cfg.sample_rate_hz / (4.0 * std::abs(wanted))));
    synth_cfg.shift_hz = std::copysign(synth_cfg.sample_rate_hz / (4.0 * k), wanted);
    const auto synth = sp.synth(
        [&] { return itb::backscatter::synthesize_wifi(psdu, synth_cfg); });

    const itb::core::UplinkBudget b = sys_->budget(psdu.size());
    itb::dsp::Xoshiro256 rng(
        itb::dsp::splitmix64(scenario_.seed ^ 0x75706C6BULL));
    const Real fs = synth_cfg.sample_rate_hz;
    const itb::dsp::CVec shifted = sp.downconvert([&] {
      return itb::channel::apply_cfo(synth.waveform, -synth_cfg.shift_hz, fs);
    });

    const std::size_t spc = 13;
    itb::dsp::CVec chips(shifted.size() / spc);
    for (std::size_t c = 0; c < chips.size(); ++c) {
      itb::dsp::Complex acc{0.0, 0.0};
      for (std::size_t s = 0; s < spc; ++s) acc += shifted[c * spc + s];
      chips[c] = acc / static_cast<Real>(spc);
    }
    const Real cur = itb::dsp::mean_power(chips);
    if (cur > 0.0) {
      const Real g = std::sqrt(itb::dsp::dbm_to_watts(b.rssi_dbm) / cur);
      for (auto& c : chips) c *= g;
    }
    const Real noise_dbm =
        itb::channel::thermal_noise_dbm(11e6, scenario_.rx_noise_figure_db);
    const itb::dsp::CVec noisy = itb::channel::add_noise_variance(
        chips, itb::dsp::dbm_to_watts(noise_dbm), rng);

    const itb::wifi::DsssReceiver rx;
    const auto res = sp.rx([&] { return rx.receive(noisy); });
    sp.total.seconds += seconds_since(t0);
    return res.has_value() && res->header_ok && res->psdu == psdu;
  }

  itb::core::UplinkScenario scenario_;
  std::vector<Bytes> psdus_;
  std::unique_ptr<itb::core::InterscatterSystem> sys_;
};

// --- per_sweep_implant -------------------------------------------------------

/// per_vs_snr at 11 Mbps CCK, implant-tissue preset, 2..16 dB, 2 threads.
/// A call cycles through kConfigs sweep seeds so one run averages over
/// several failure patterns.
class PerSweepImplant final : public Workload {
 public:
  static constexpr std::size_t kConfigs = 24;
  static constexpr std::size_t kTrialsPerPoint = 25;
  static constexpr std::size_t kThreads = 2;
  /// The waterfall's floor: at most one failed trial at 16 dB. A rare deep
  /// implant fade fails one trial there in about one sweep seed of 250.
  static constexpr double kFloorPer = 1.0 / kTrialsPerPoint;

  explicit PerSweepImplant(std::uint64_t seed) {
    itb::dsp::Xoshiro256 rng(stream_seed(seed, 0x7377656570ULL));
    for (std::size_t k = 0; k < kConfigs; ++k) seeds_.push_back(rng.next_u64());
    for (int snr = 2; snr <= 16; snr += 2) grid_.push_back(snr);
    configs_.resize(kConfigs);
  }

  std::size_t inputs() const override { return kConfigs; }
  std::size_t threads() const override { return kThreads; }
  std::size_t setup_units() const override { return kConfigs; }

  void rebuild(std::size_t k) override {
    itb::core::MonteCarloConfig cfg;
    cfg.rate = itb::wifi::DsssRate::k11Mbps;
    cfg.psdu_bytes = kPsduBytes;
    cfg.trials_per_point = kTrialsPerPoint;
    cfg.seed = seeds_[k];
    cfg.num_threads = kThreads;
    cfg.impairments = itb::channel::make_impairment_preset(
        itb::channel::ImpairmentPreset::kImplantTissue, 11e6,
        itb::ble::wifi_channel_hz(11));
    configs_[k] = cfg;
  }

  bool prepare() override {
    refs_.clear();
    bool ok = true;
    for (itb::core::MonteCarloConfig cfg : configs_) {
      cfg.num_threads = 1;
      refs_.push_back(itb::core::per_vs_snr(cfg, grid_));
      ok &= refs_.back().back().per_monte_carlo <= kFloorPer;
    }
    return ok;
  }

  CallResult call(std::size_t i) override {
    const std::size_t k = i % kConfigs;
    const auto pts = itb::core::per_vs_snr(configs_[k], grid_);
    return {grid_.size() * kTrialsPerPoint,
            same_points(pts, refs_[k]) && pts.back().per_monte_carlo <= kFloorPer};
  }

  std::size_t count_calls() const override { return kConfigs; }

  bool trace(double seconds, std::vector<Metric>& out) override {
    const double trials_per_call =
        static_cast<double>(grid_.size() * kTrialsPerPoint);
    // Untraced trials/s at 1 and at 2 threads (parallel efficiency).
    double rate[2] = {0.0, 0.0};
    bool ok = true;
    for (std::size_t threads = 1; threads <= 2; ++threads) {
      const auto [calls, s] = loop_for(seconds * 0.3, 2, [&](std::size_t i) {
        itb::core::MonteCarloConfig cfg = configs_[i % kConfigs];
        cfg.num_threads = threads;
        ok &= same_points(itb::core::per_vs_snr(cfg, grid_), refs_[i % kConfigs]);
      });
      rate[threads - 1] = static_cast<double>(calls) * trials_per_call / s;
    }

    // Traced: the sweep decomposed into its layers at 1 thread. The stage
    // taxonomy covers exactly one pass over the configs, so it is exact.
    Spans sp;
    Taxonomy tax;
    const auto [configs_done, traced_s] =
        loop_for(seconds * 0.4, kConfigs, [&](std::size_t i) {
          Taxonomy t;
          ok &= traced_sweep(i % kConfigs, sp, t);
          if (i < kConfigs) tax.add(t);
        });
    const auto trials = static_cast<std::uint64_t>(configs_done) *
                        static_cast<std::uint64_t>(trials_per_call);
    const double all = static_cast<double>(tax.total());

    out.push_back({"wifi.dsss_tx_ms", ms_per(sp.tx, trials), ""});
    out.push_back({"channel.impair_channel_ms", ms_per(sp.channel, trials), ""});
    out.push_back({"channel.noise_ms", ms_per(sp.noise, trials), ""});
    out.push_back({"channel.impair_frontend_ms", ms_per(sp.frontend, trials), ""});
    out.push_back({"wifi.dsss_rx.trial_ms", ms_per(sp.rx, trials), ""});
    out.push_back({"core.parallel_efficiency_2t", rate[1] / (2.0 * rate[0]), ""});
    out.push_back({"wifi.dsss_rx.decoded_ratio", static_cast<double>(tax.decoded) / all, ""});
    out.push_back({"wifi.dsss_rx.no_sync_ratio", static_cast<double>(tax.no_sync) / all, ""});
    out.push_back({"wifi.dsss_rx.header_fail_ratio", static_cast<double>(tax.header_fail) / all, ""});
    out.push_back({"wifi.dsss_rx.payload_fail_ratio", static_cast<double>(tax.payload_fail) / all, ""});
    out.push_back({"trace.overhead_per_s",
                   static_cast<double>(trials) / traced_s - rate[0], ""});
    return ok;
  }

  std::string info() const override {
    std::string s = "\"failures_per_point\": [";
    for (std::size_t k = 0; k < refs_.size(); ++k) {
      s += k == 0 ? "[" : ", [";
      for (std::size_t p = 0; p < refs_[k].size(); ++p) {
        if (p != 0) s += ", ";
        s += std::to_string(failures(refs_[k][p]));
      }
      s += "]";
    }
    return s + "]";
  }

 private:
  struct Spans {
    Span tx, channel, noise, frontend, rx;
  };
  struct Taxonomy {
    std::uint64_t decoded = 0, no_sync = 0, header_fail = 0, payload_fail = 0;
    std::uint64_t total() const {
      return decoded + no_sync + header_fail + payload_fail;
    }
    void add(const Taxonomy& o) {
      decoded += o.decoded;
      no_sync += o.no_sync;
      header_fail += o.header_fail;
      payload_fail += o.payload_fail;
    }
  };

  static std::size_t failures(const itb::core::PerPoint& p) {
    return static_cast<std::size_t>(
        std::lround(p.per_monte_carlo * static_cast<double>(p.trials)));
  }

  static bool same_points(const std::vector<itb::core::PerPoint>& a,
                          const std::vector<itb::core::PerPoint>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t p = 0; p < a.size(); ++p) {
      if (a[p].snr_db != b[p].snr_db ||
          a[p].per_monte_carlo != b[p].per_monte_carlo ||
          a[p].per_closed_form != b[p].per_closed_form ||
          a[p].trials != b[p].trials) {
        return false;
      }
    }
    return true;
  }

  /// per_vs_snr's trial loop for config k, with each public call timed.
  /// Must reproduce the reference failure count at every point.
  bool traced_sweep(std::size_t k, Spans& sp, Taxonomy& tax) const {
    const itb::core::MonteCarloConfig& cfg = configs_[k];
    itb::wifi::DsssTxConfig txcfg;
    txcfg.rate = cfg.rate;
    const itb::wifi::DsssTransmitter tx(txcfg);
    const itb::wifi::DsssReceiver rx;
    std::optional<itb::channel::ImpairmentChain> chain;
    if (cfg.impairments) chain.emplace(*cfg.impairments);

    bool ok = true;
    for (std::size_t point = 0; point < grid_.size(); ++point) {
      std::size_t failed = 0;
      for (std::size_t trial = 0; trial < kTrialsPerPoint; ++trial) {
        const itb::core::ArenaFrame trial_scratch;
        const std::size_t idx = point * kTrialsPerPoint + trial;
        itb::dsp::Xoshiro256 rng(itb::core::trial_seed(cfg.seed, point, trial));
        const Bytes psdu = random_psdu(rng, cfg.psdu_bytes);
        const auto frame = sp.tx([&] { return tx.modulate(psdu); });
        itb::dsp::CVec wave = frame.baseband;
        if (chain) {
          wave = sp.channel([&] { return chain->apply_channel(wave, cfg.seed, idx); });
        }
        auto noisy = sp.noise(
            [&] { return itb::channel::add_noise_snr(wave, grid_[point], rng); });
        if (chain) noisy = sp.frontend([&] { return chain->apply_frontend(noisy); });
        const auto result = sp.rx([&] { return rx.receive(noisy); });
        if (!result.has_value()) {
          ++tax.no_sync;
        } else if (!result->header_ok) {
          ++tax.header_fail;
        } else if (result->psdu != psdu) {
          ++tax.payload_fail;
        } else {
          ++tax.decoded;
          continue;
        }
        ++failed;
      }
      ok &= failed == failures(refs_[k][point]);
    }
    return ok;
  }

  std::vector<std::uint64_t> seeds_;
  std::vector<double> grid_;
  std::vector<itb::core::MonteCarloConfig> configs_;
  std::vector<std::vector<itb::core::PerPoint>> refs_;
};

// --- fleet_ward_faults -------------------------------------------------------

/// NetworkCoordinator::run() on a 20k-tag ward with the intensity-1 fault
/// schedule, ARQ, rate/ZigBee fallback and AP failover, 1 thread. A call
/// cycles through kFleets wards drawn from the run seed.
class FleetWardFaults final : public Workload {
 public:
  static constexpr std::size_t kFleets = 3;
  static constexpr std::size_t kTags = 20000;
  static constexpr std::size_t kRounds = 8;

  explicit FleetWardFaults(std::uint64_t seed) {
    itb::dsp::Xoshiro256 rng(stream_seed(seed, 0x7761726473ULL));
    for (std::size_t f = 0; f < kFleets; ++f) {
      bases_.push_back(ward_config(rng.next_u64(), rng.next_u64()));
    }
    nets_.resize(kFleets);
  }

  std::size_t inputs() const override { return kFleets; }
  std::size_t threads() const override { return 1; }
  std::size_t setup_units() const override { return kFleets; }

  /// Set-up of one ward: its fault schedule, topology, spatial hash and
  /// link budgets.
  void rebuild(std::size_t f) override {
    nets_[f].reset();
    nets_[f] = std::make_unique<itb::sim::NetworkCoordinator>(
        with_faults(bases_[f]));
  }

  bool prepare() override {
    refs_.clear();
    bool ok = true;
    for (const auto& net : nets_) {
      itb::sim::NetworkConfig cfg = net->config();
      cfg.num_threads = 2;
      const itb::sim::NetworkStats s = itb::sim::NetworkCoordinator(cfg).run();
      ok &= stats_ok(s);
      refs_.push_back(s);
    }
    return ok;
  }

  CallResult call(std::size_t i) override {
    const std::size_t f = i % kFleets;
    const itb::sim::NetworkStats s = nets_[f]->run();
    return {s.queries_sent, stats_ok(s) && s.digest() == refs_[f].digest()};
  }

  std::size_t count_calls() const override { return 2 * kFleets; }

  bool trace(double seconds, std::vector<Metric>& out) override {
    // Build breakdown: the constructor generates the topology itself, so
    // generate_topology is timed on its own and the rest of the constructor
    // (spatial hash, link budgets, fault timeline) is the link build.
    std::vector<double> topo_ms, links_ms, faults_ms;
    for (std::size_t rep = 0; rep < 3; ++rep) {
      for (const itb::sim::NetworkConfig& base : bases_) {
        auto t0 = Clock::now();
        const itb::sim::Placement placement =
            itb::sim::generate_topology(base.topology);
        topo_ms.push_back(seconds_since(t0) * 1e3);
        t0 = Clock::now();
        const itb::sim::NetworkConfig cfg = with_faults(base);
        faults_ms.push_back(seconds_since(t0) * 1e3);
        t0 = Clock::now();
        const itb::sim::NetworkCoordinator net(cfg);
        links_ms.push_back(seconds_since(t0) * 1e3 - topo_ms.back());
      }
    }

    bool ok = true;
    const auto [plain_calls, plain_s] =
        loop_for(seconds * 0.4, kFleets, [&](std::size_t i) { ok &= call(i).ok; });

    itb::obs::prof_reset();
    itb::obs::prof_enable(true);
    const auto [traced_calls, traced_s] = loop_for(
        seconds * 0.4, kFleets, [&](std::size_t i) { ok &= call(i).ok; });
    itb::obs::prof_enable(false);
    double loop_ms = 0.0, merge_ms = 0.0;
    for (const itb::obs::ProfZoneStat& z : itb::obs::prof_report()) {
      if (z.name == "sim.event_loop") loop_ms = z.total_ms;
      if (z.name == "sim.merge") merge_ms = z.total_ms;
    }
    const auto calls = static_cast<double>(traced_calls);

    std::uint64_t polls = 0, delivered = 0, retx = 0, failover = 0,
                  fallback = 0, skipped = 0;
    for (const itb::sim::NetworkStats& s : refs_) {
      polls += s.queries_sent;
      delivered += s.messages_delivered;
      retx += s.retransmissions;
      failover += s.failover_polls;
      fallback += s.fallback_polls;
      skipped += s.backoff_skips + s.brownout_skips + s.outage_skips +
                 s.link_down_polls;
    }
    const auto fleets = static_cast<double>(kFleets);

    out.push_back({"sim.build.topology_ms", quantile(topo_ms, 0.5), ""});
    out.push_back({"sim.build.links_ms", quantile(links_ms, 0.5), ""});
    out.push_back({"sim.fault_schedule_ms", quantile(faults_ms, 0.5), ""});
    out.push_back({"sim.event_loop_ms", loop_ms / calls, ""});
    out.push_back({"sim.merge_ms", merge_ms / calls, ""});
    out.push_back({"sim.delivered_per_poll",
                   static_cast<double>(delivered) / static_cast<double>(polls), ""});
    out.push_back({"mac.arq.retransmissions_per_call", static_cast<double>(retx) / fleets, ""});
    out.push_back({"sim.failover_polls", static_cast<double>(failover) / fleets, ""});
    out.push_back({"sim.fallback_polls", static_cast<double>(fallback) / fleets, ""});
    out.push_back({"sim.skipped_slots", static_cast<double>(skipped) / fleets, ""});
    out.push_back({"trace.overhead_per_s",
                   calls * kTags * kRounds / traced_s -
                       static_cast<double>(plain_calls) * kTags * kRounds / plain_s,
                   ""});
    return ok;
  }

  std::string info() const override {
    std::string s = "\"digests\": [";
    for (std::size_t f = 0; f < refs_.size(); ++f) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s\"%016llx\"", f == 0 ? "" : ", ",
                    static_cast<unsigned long long>(refs_[f].digest()));
      s += buf;
    }
    return s + "]";
  }

 private:
  /// The net_scale hospital-ward fleet at kTags tags.
  static itb::sim::NetworkConfig ward_config(std::uint64_t topo_seed,
                                             std::uint64_t sim_seed) {
    itb::sim::NetworkConfig cfg;
    cfg.topology.kind = itb::sim::TopologyKind::kHospitalWard;
    cfg.topology.num_tags = kTags;
    cfg.topology.num_helpers = 0;
    cfg.topology.num_aps = std::max<std::size_t>(6, (kTags + 3) / 16);
    cfg.topology.seed = topo_seed;
    cfg.detector_sensitivity_dbm = -49.0;
    cfg.wifi_channels = {1, 6, 11};
    cfg.rounds = kRounds;
    cfg.seed = sim_seed;
    cfg.num_threads = 1;
    cfg.keep_per_tag = false;
    // net_resilience's ARQ + fallback + failover settings.
    cfg.enable_arq = true;
    cfg.arq.max_attempts = 8;
    cfg.arq.retry_budget = 16;
    cfg.arq.backoff_base_slots = 0;
    cfg.fallback.enable_rate_fallback = true;
    cfg.fallback.enable_zigbee_fallback = true;
    cfg.fallback.down_after_failures = 2;
    cfg.ap_failover = true;
    return cfg;
  }

  /// Adds net_resilience's intensity-1 fault schedule.
  static itb::sim::NetworkConfig with_faults(itb::sim::NetworkConfig cfg) {
    itb::sim::FaultProfile profile;
    profile.horizon_us = static_cast<double>(cfg.rounds) *
                         static_cast<double>((kTags + 2) / 3) * 20160.0;
    profile.outages_per_ap = 1.0;
    profile.outage_mean_us = 0.1 * profile.horizon_us;
    profile.bursts_per_channel = 2.0;
    profile.burst_mean_us = 0.05 * profile.horizon_us;
    profile.burst_rise_db = 20.0;
    profile.brownouts_per_tag = 0.2;
    profile.brownout_mean_us = 0.02 * profile.horizon_us;
    profile.snr_slumps = 1.0;
    profile.slump_mean_us = 0.05 * profile.horizon_us;
    profile.slump_depth_db = 6.0;
    cfg.faults = itb::sim::generate_fault_schedule(
        profile, cfg.topology.num_aps, cfg.wifi_channels,
        cfg.topology.num_tags, cfg.seed ^ 0xFA17u);
    return cfg;
  }

  static bool stats_ok(const itb::sim::NetworkStats& s) {
    return s.queries_sent == kTags * kRounds &&
           s.messages_delivered + s.messages_dropped <= s.messages_offered;
  }

  std::vector<itb::sim::NetworkConfig> bases_;
  std::vector<std::unique_ptr<itb::sim::NetworkCoordinator>> nets_;
  std::vector<itb::sim::NetworkStats> refs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "uplink_frame") return std::make_unique<UplinkFrame>(seed);
  if (name == "per_sweep_implant") return std::make_unique<PerSweepImplant>(seed);
  if (name == "fleet_ward_faults") return std::make_unique<FleetWardFaults>(seed);
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const std::vector<Metric>& per_layer_schema() {
  static const std::vector<Metric> schema = {
      {"backscatter.synth_ms", 0.0, "ms/frame"},
      {"channel.downconvert_ms", 0.0, "ms/frame"},
      {"core.frame_other_ms", 0.0, "ms/frame"},
      {"wifi.dsss_rx.frame_ms", 0.0, "ms/frame"},
      {"wifi.dsss_tx_ms", 0.0, "ms/trial"},
      {"channel.impair_channel_ms", 0.0, "ms/trial"},
      {"channel.noise_ms", 0.0, "ms/trial"},
      {"channel.impair_frontend_ms", 0.0, "ms/trial"},
      {"wifi.dsss_rx.trial_ms", 0.0, "ms/trial"},
      {"core.parallel_efficiency_2t", 0.0, "ratio"},
      {"wifi.dsss_rx.decoded_ratio", 0.0, "ratio"},
      {"wifi.dsss_rx.no_sync_ratio", 0.0, "ratio"},
      {"wifi.dsss_rx.header_fail_ratio", 0.0, "ratio"},
      {"wifi.dsss_rx.payload_fail_ratio", 0.0, "ratio"},
      {"sim.build.topology_ms", 0.0, "ms/fleet"},
      {"sim.build.links_ms", 0.0, "ms/fleet"},
      {"sim.fault_schedule_ms", 0.0, "ms/fleet"},
      {"sim.event_loop_ms", 0.0, "ms/call"},
      {"sim.merge_ms", 0.0, "ms/call"},
      {"sim.delivered_per_poll", 0.0, "ratio"},
      {"mac.arq.retransmissions_per_call", 0.0, "count"},
      {"sim.failover_polls", 0.0, "count"},
      {"sim.fallback_polls", 0.0, "count"},
      {"sim.skipped_slots", 0.0, "count"},
      {"allocs_per_call", 0.0, "count"},
      {"alloc_mb_per_call", 0.0, "MB"},
      {"minor_faults_per_call", 0.0, "count"},
      {"sys_cpu_share", 0.0, "ratio"},
      {"trace.overhead_per_s", 0.0, "1/s"},
  };
  return schema;
}

}  // namespace perfbench
