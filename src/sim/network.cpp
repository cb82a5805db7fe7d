#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "backscatter/ic_power.h"
#include "ble/channel_map.h"
#include "channel/awgn.h"
#include "core/parallel.h"
#include "dsp/units.h"
#include "obs/capture.h"
#include "obs/prof.h"
#include "sim/entity_stream.h"
#include "sim/spatial_hash.h"

namespace itb::sim {

namespace {

/// AP transmit power for the OFDM-AM downlink query.
constexpr Real kApTxPowerDbm = 15.0;

/// CCA energy-detect threshold: leakage below this never makes the victim
/// channel look busy, it only raises the noise floor.
constexpr Real kCcaThresholdDbm = -62.0;

/// RNG phase salts: every (tag, round) poll uses two independent substreams
/// so the reply draws never depend on how many draws the query phase made.
constexpr std::uint64_t kQueryPhase = 0;
constexpr std::uint64_t kReplyPhase = 1;

std::uint64_t phase_counter(std::uint64_t round, std::uint64_t phase) {
  return round * 2 + phase;
}

struct Shard {
  std::size_t group = 0;
  std::size_t begin = 0;  ///< slot range within the group's tag list
  std::size_t end = 0;
};

/// Upper edges (us) of the exported `itb.sim.poll_latency_us` histogram:
/// one `le` bucket per decade, plus +Inf.
constexpr std::array<double, 7> kPollLatencyEdgesUs = {1e2, 1e3, 1e4, 1e5,
                                                       1e6, 1e7, 1e8};

/// Reduction block: everything one shard contributes to NetworkStats — the
/// poll counters, the latency, recovery and retry histograms, and the six
/// double sums the fleet means need — plus the per-`le` latency counts of
/// the metrics snapshot (kept only with a RunCapture attached). Each shard
/// folds its tags into one of these in slot order, and the blocks merge in
/// shard-index order: one summation order, so the fleet totals are
/// thread-count invariant and the same with or without keep_per_tag, and
/// memory stays O(shards + threads * shard_tags) when no per-tag array is
/// kept.
struct ShardAgg : PollCounters {
  LatencyHistogram query_latency;
  LatencyHistogram recovery_time;
  RetryHistogram retry_histogram;
  std::array<std::uint64_t, kPollLatencyEdgesUs.size() + 1> latency_le{};
  double payload_bits = 0.0;
  double tx_energy_nj = 0.0;
  double sum_tag_goodput = 0.0;
  double sum_airtime_duty = 0.0;
  double sum_harvest_duty = 0.0;
  double sum_power_uw = 0.0;

  void merge(const ShardAgg& o) {
    *this += o;
    query_latency.merge(o.query_latency);
    recovery_time.merge(o.recovery_time);
    retry_histogram.merge(o.retry_histogram);
    for (std::size_t b = 0; b < latency_le.size(); ++b) {
      latency_le[b] += o.latency_le[b];
    }
    payload_bits += o.payload_bits;
    tx_energy_nj += o.tx_energy_nj;
    sum_tag_goodput += o.sum_tag_goodput;
    sum_airtime_duty += o.sum_airtime_duty;
    sum_harvest_duty += o.sum_harvest_duty;
    sum_power_uw += o.sum_power_uw;
  }
};

/// Per-tag ARQ + fallback progress (lives in the owning shard only; a pure
/// fold over that tag's own attempt outcomes, so thread-count invariant).
struct ArqProgress {
  bool in_flight = false;         ///< a message is being delivered
  std::size_t attempts = 0;       ///< attempts spent on the current message
  std::size_t retx_used = 0;      ///< retransmissions charged to the budget
  std::size_t fail_streak = 0;    ///< consecutive failed attempts (backoff)
  std::size_t backoff_remaining = 0;  ///< slots left to idle before retrying
  mac::RateFallbackController fallback;
  bool disrupted = false;         ///< inside a not-yet-recovered outage/fade
  double disrupted_since_us = 0.0;
};

Real waveform_per_at(mac::LinkWaveform w, Real snr_db,
                     std::size_t wire_bytes) {
  if (mac::is_wifi(w)) {
    return itb::channel::per_80211b(mac::waveform_rate(w), snr_db, wire_bytes);
  }
  return itb::channel::per_802154(snr_db, wire_bytes);
}

/// waveform_per_at(w, snr_db, wire_bytes) for every rung w in `rungs`,
/// with `at` (built at snr_db) supplying the header term once; rungs
/// outside the range hold 1.0. Returns the top rung's payload BER, which
/// the caller reuses for the reply PER at the message size.
Real rung_pers(const mac::RungRange& rungs,
               const itb::channel::DsssPerAtSnr& at, Real snr_db,
               std::size_t wire_bytes,
               std::array<Real, mac::kNumLinkWaveforms>& per) {
  per.fill(Real{1.0});
  Real top_ber = Real{0.5};
  for (auto w = static_cast<std::size_t>(rungs.top);
       w <= static_cast<std::size_t>(rungs.floor); ++w) {
    const auto wf = static_cast<mac::LinkWaveform>(w);
    if (!mac::is_wifi(wf)) {
      per[w] = itb::channel::per_802154(snr_db, wire_bytes);
      continue;
    }
    const Real ber = at.payload_ber(mac::waveform_rate(wf));
    if (wf == rungs.top) top_ber = ber;
    per[w] = at.per(ber, wire_bytes);
  }
  return top_ber;
}

}  // namespace

NetworkCoordinator::NetworkCoordinator(const NetworkConfig& cfg) : cfg_(cfg) {
  static const std::size_t kZoneBuild = obs::prof_zone("sim.topology_build");
  const obs::ProfZone prof_build(kZoneBuild);
  if (cfg_.wifi_channels.empty()) {
    throw std::invalid_argument("NetworkConfig: no Wi-Fi channels");
  }
  if (cfg_.shard_tags == 0) cfg_.shard_tags = 256;
  cfg_.polling = cfg_.polling.validated();
  cfg_.arq = cfg_.arq.validated();
  cfg_.fallback = cfg_.fallback.validated();
  placement_ = generate_topology(cfg_.topology);
  const std::size_t n = placement_.tags.size();
  if (n > 0 && (placement_.helpers.empty() || placement_.aps.empty())) {
    throw std::invalid_argument(
        "NetworkConfig: tags present but no helpers or no APs");
  }

  // Effective wire size of one attempt: with ARQ the message carries the
  // mac/arq framing (header + CRC) on top of its payload.
  wire_bytes_ = cfg_.enable_arq
                    ? cfg_.payload_bytes + mac::kFragmentOverheadBytes
                    : cfg_.payload_bytes;

  timeline_ = FaultTimeline(cfg_.faults, placement_.aps.size(),
                            cfg_.wifi_channels, n);

  const std::size_t num_groups = cfg_.wifi_channels.size();
  links_.resize(n);
  channels_.assign(num_groups, {});

  // FDMA: balance groups round-robin by tag id. Deterministic and keeps
  // every channel's TDMA round the same length to within one tag. Group g
  // is the arithmetic sequence g, g+G, g+2G, ... — filled directly, no
  // per-tag push_back.
  group_tags_.assign(num_groups, {});
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t count = n > g ? (n - g - 1) / num_groups + 1 : 0;
    group_tags_[g].resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      group_tags_[g][j] = static_cast<std::uint32_t>(g + j * num_groups);
    }
  }

  const Real ble_hz = itb::ble::ChannelMap::frequency_hz(cfg_.ble_channel);

  // --- per-tag link budgets (pure geometry + closed forms) -----------------
  // Nearest helper/AP come from spatial-hash grids (bit-identical to the
  // brute-force scans, including index-order tie-breaks). The loop body
  // is a pure function of (cfg, placement) writing disjoint links_[t]
  // slots, so it fans out over fixed-size blocks: thread count changes
  // wall time, never results.
  // The fleet-wide budget terms (reference path loss, thermal noise,
  // transmit-side gains) are evaluated once here; each tag then pays its
  // helper leg once, shared by its primary and failover budgets.
  itb::channel::LogDistanceModel pl;
  pl.exponent = cfg_.pathloss_exponent;
  itb::channel::BackscatterLinkConfig budget_cfg;
  budget_cfg.ble_tx_power_dbm = cfg_.ble_tx_power_dbm;
  budget_cfg.tag_medium_loss_db = cfg_.tag_medium_loss_db;
  budget_cfg.rx_noise_figure_db = cfg_.rx_noise_figure_db;
  budget_cfg.pathloss.exponent = cfg_.pathloss_exponent;
  const itb::channel::BackscatterBudget budget(budget_cfg);
  const SpatialHashGrid helper_grid(placement_.helpers);
  const SpatialHashGrid ap_grid(placement_.aps);
  // Downlink: the AP's OFDM-AM query must clear the tag's peak detector
  // after the tissue loss; below sensitivity the tag never hears it.
  const auto downlink_rssi = [&](Real ap_distance_m) {
    return itb::channel::direct_rssi_dbm(kApTxPowerDbm, 2.0, 2.0, pl,
                                         ap_distance_m) -
           cfg_.tag_medium_loss_db;
  };
  const auto downlink_miss = [&](Real rssi_dbm) {
    return rssi_dbm < cfg_.detector_sensitivity_dbm
               ? Real{1.0}
               : cfg_.polling.downlink_error_rate;
  };
  const auto build_link = [&](std::size_t t) {
    TagLink& link = links_[t];
    const std::size_t g = t % num_groups;
    link.wifi_channel = cfg_.wifi_channels[g];

    link.helper =
        static_cast<std::uint32_t>(helper_grid.nearest(placement_.tags[t]));
    link.ap = static_cast<std::uint32_t>(ap_grid.nearest(placement_.tags[t]));
    // The pathloss model diverges as d -> 0; a tag is never closer than a
    // few cm to either radio.
    const Real helper_distance_m = std::max(
        distance_m(placement_.helpers[link.helper], placement_.tags[t]),
        Real{0.05});
    const Real ap_distance_m = std::max(
        distance_m(placement_.aps[link.ap], placement_.tags[t]), Real{0.05});

    const itb::channel::BackscatterBudget::HelperLeg leg =
        budget.helper_leg(helper_distance_m);
    const itb::channel::LinkSample s = budget.sample(leg, ap_distance_m);
    link.reply_rssi_dbm = s.rssi_dbm;
    link.link_down = s.link_down;
    link.snr_db = s.snr_db;

    link.downlink_miss_prob = downlink_miss(downlink_rssi(ap_distance_m));

    // Failover target: the nearest AP other than the primary (raw
    // distance, lowest index on ties), with its own precomputed budget.
    // Reassigning to a different Wi-Fi channel would rewrite the TDMA
    // schedule mid-run, so failover keeps the tag's FDMA group and only
    // swaps which AP transmits/receives.
    if (cfg_.ap_failover && placement_.aps.size() > 1) {
      const std::size_t fo = ap_grid.nearest(placement_.tags[t], link.ap);
      const Real fo_distance_m = std::max(
          distance_m(placement_.aps[fo], placement_.tags[t]), Real{0.05});
      const itb::channel::LinkSample fs = budget.sample(leg, fo_distance_m);
      if (!fs.link_down) {
        link.has_failover = true;
        link.failover_ap = static_cast<std::uint32_t>(fo);
        link.failover_snr_db = fs.snr_db;
        link.failover_downlink_miss_prob =
            downlink_miss(downlink_rssi(fo_distance_m));
      }
    }
  };
  constexpr std::size_t kBuildBlock = 4096;
  const std::size_t num_blocks = (n + kBuildBlock - 1) / kBuildBlock;
  itb::core::parallel_for(num_blocks, cfg_.num_threads, [&](std::size_t bi) {
    const std::size_t hi = std::min(n, (bi + 1) * kBuildBlock);
    for (std::size_t t = bi * kBuildBlock; t < hi; ++t) build_link(t);
  });

  // --- per-group airtime occupancy and mean reply power --------------------
  const double slot_us = mac::poll_slot_us(cfg_.polling);
  const double frame_us =
      itb::wifi::frame_airtime_us(cfg_.rate, cfg_.payload_bytes);
  std::vector<Real> mean_reply_watts(num_groups, 0.0);
  std::vector<Real> occupancy(num_groups, 0.0);
  {
    mac::ReservationConfig rc;
    rc.scheme = cfg_.reservation;
    rc.channel_busy_probability = cfg_.ambient_busy_probability;
    rc.cts_detection_probability = cfg_.cts_detection_probability;
    const mac::ReservationOutcome base = mac::reservation_outcome(rc);
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (group_tags_[g].empty()) continue;
      Real watts = 0.0;
      Real transmit_prob = 0.0;
      for (const std::uint32_t t : group_tags_[g]) {
        watts += itb::dsp::dbm_to_watts(links_[t].reply_rssi_dbm);
        transmit_prob += (1.0 - links_[t].downlink_miss_prob) *
                         (base.p_clean + base.p_collision);
      }
      const auto sz = static_cast<Real>(group_tags_[g].size());
      mean_reply_watts[g] = watts / sz;
      // TDMA serializes the group: at most one reply is on the air, for
      // frame_us of every slot_us, whenever the polled tag transmits.
      occupancy[g] = frame_us / slot_us * (transmit_prob / sz);
    }
  }

  // --- cross-channel SSB mirror leakage ------------------------------------
  // Group a's replies sit at f_a = ble + shift_a; the imperfect single
  // sideband leaves a mirror at ble - shift_a = 2*ble - f_a, suppressed by
  // ssb_sideband_suppression_db. Where the mirror overlaps victim group v's
  // 22 MHz channel, the victim's noise floor rises in proportion to the
  // aggressor's airtime occupancy.
  const Real noise_watts = itb::dsp::dbm_to_watts(
      itb::channel::thermal_noise_dbm(22e6, cfg_.rx_noise_figure_db));
  for (std::size_t v = 0; v < num_groups; ++v) {
    ChannelStats& ch = channels_[v];
    ch.wifi_channel = cfg_.wifi_channels[v];
    ch.tags = group_tags_[v].size();
    ch.occupancy = occupancy[v];
    ch.elapsed_us = static_cast<double>(cfg_.rounds) *
                    static_cast<double>(group_tags_[v].size()) * slot_us;

    const Real f_v = itb::ble::wifi_channel_hz(cfg_.wifi_channels[v]);
    Real interference_watts = 0.0;
    Real busy = cfg_.ambient_busy_probability;
    for (std::size_t a = 0; a < num_groups; ++a) {
      if (a == v || group_tags_[a].empty()) continue;
      const Real f_a = itb::ble::wifi_channel_hz(cfg_.wifi_channels[a]);
      const Real mirror_hz = 2.0 * ble_hz - f_a;
      const Real overlap =
          std::max(Real{0.0}, 1.0 - std::abs(mirror_hz - f_v) / 22e6);
      if (overlap <= 0.0) continue;
      const Real leak_watts =
          mean_reply_watts[a] *
          itb::dsp::db_to_ratio(-cfg_.ssb_sideband_suppression_db) * overlap;
      interference_watts += occupancy[a] * leak_watts;
      // Strong leakage can additionally trip the victim's CCA.
      if (itb::dsp::watts_to_dbm(leak_watts) > kCcaThresholdDbm) {
        busy += occupancy[a] * overlap;
      }
    }
    ch.leakage_noise_rise_db =
        itb::dsp::ratio_to_db(1.0 + interference_watts / noise_watts);
    ch.busy_probability = std::min(busy, Real{0.99});
  }

  // --- leakage-degraded reply PER per tag ----------------------------------
  // Same fan-out discipline as the budget loop: disjoint links_[t] writes,
  // pure closed forms, fixed blocks. Only what run() can read is
  // evaluated: the rungs a tag's fallback controller can reach (the rest
  // keep the 1.0 fill), each SNR's header term once, and reply_per from
  // the initial rung's payload BER.
  const mac::RungRange rungs =
      mac::reachable_rungs(cfg_.fallback, mac::waveform_for_rate(cfg_.rate));
  itb::core::parallel_for(num_blocks, cfg_.num_threads, [&](std::size_t bi) {
    const std::size_t hi = std::min(n, (bi + 1) * kBuildBlock);
    for (std::size_t t = bi * kBuildBlock; t < hi; ++t) {
      const std::size_t g = t % num_groups;
      TagLink& link = links_[t];
      const Real snr = link.snr_db - channels_[g].leakage_noise_rise_db;
      const itb::channel::DsssPerAtSnr at(snr);
      const Real top_ber =
          rung_pers(rungs, at, snr, wire_bytes_, link.waveform_per);
      link.reply_per = at.per(top_ber, cfg_.payload_bytes);
      if (link.has_failover) {
        const Real fo_snr =
            link.failover_snr_db - channels_[g].leakage_noise_rise_db;
        rung_pers(rungs, itb::channel::DsssPerAtSnr(fo_snr), fo_snr,
                  wire_bytes_, link.failover_waveform_per);
      } else {
        link.failover_waveform_per.fill(Real{1.0});
      }
    }
  });
}

NetworkStats NetworkCoordinator::run(obs::RunCapture* capture) const {
  static const std::size_t kZoneRun = obs::prof_zone("sim.run");
  const obs::ProfZone prof_run(kZoneRun);
  const std::size_t n = placement_.tags.size();
  const std::size_t num_groups = group_tags_.size();
  const double slot_us = mac::poll_slot_us(cfg_.polling);
  const double query_us = static_cast<double>(mac::QueryFrame::kBits) /
                          cfg_.polling.downlink_kbps * 1e3;
  const double payload_bits = static_cast<double>(cfg_.payload_bytes) * 8.0;
  const mac::LinkWaveform initial_waveform = mac::waveform_for_rate(cfg_.rate);

  // Per-group reservation outcome (closed form, O(1) per reply).
  std::vector<mac::ReservationOutcome> outcome(num_groups);
  std::vector<double> round_us(num_groups, 0.0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    mac::ReservationConfig rc;
    rc.scheme = cfg_.reservation;
    rc.channel_busy_probability = channels_[g].busy_probability;
    rc.cts_detection_probability = cfg_.cts_detection_probability;
    outcome[g] = mac::reservation_outcome(rc);
    round_us[g] =
        static_cast<double>(group_tags_[g].size()) * slot_us;
  }

  // Per-rung attempt airtime and IC transmit energy (per group: the SSB
  // shift sets the synthesizer power). uW * us = pJ, stored as nJ.
  const itb::backscatter::IcPowerModel power;
  const Real ble_hz = itb::ble::ChannelMap::frequency_hz(cfg_.ble_channel);
  std::vector<Real> shift_hz(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    shift_hz[g] =
        std::abs(itb::ble::wifi_channel_hz(cfg_.wifi_channels[g]) - ble_hz);
  }
  std::array<double, mac::kNumLinkWaveforms> attempt_airtime_us{};
  std::vector<std::array<double, mac::kNumLinkWaveforms>> attempt_energy_nj(
      num_groups);
  for (std::size_t w = 0; w < mac::kNumLinkWaveforms; ++w) {
    const auto wf = static_cast<mac::LinkWaveform>(w);
    attempt_airtime_us[w] = mac::waveform_airtime_us(wf, wire_bytes_);
    for (std::size_t g = 0; g < num_groups; ++g) {
      attempt_energy_nj[g][w] =
          power.active_power(mac::waveform_rate(wf), shift_hz[g]).total_uw() *
          attempt_airtime_us[w] * 1e-3;
    }
  }

  // Fixed shard partition: contiguous slot ranges within each group,
  // independent of num_threads (part of the result's identity).
  std::vector<Shard> shards;
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t b = 0; b < group_tags_[g].size(); b += cfg_.shard_tags) {
      shards.push_back(
          {g, b, std::min(b + cfg_.shard_tags, group_tags_[g].size())});
    }
  }

  // The O(tags) per-tag array exists only when the caller asked to keep
  // it; the fleet totals always come from the ShardAgg blocks.
  std::vector<TagStats> tag_stats(cfg_.keep_per_tag ? n : 0);
  std::vector<ShardAgg> shard_agg(shards.size());

  // Trace rings: one per shard, absorbed in shard-index order after the
  // join — the same reduction discipline the stats follow, so the trace
  // inherits the digest contract. The metrics snapshot needs no per-shard
  // state beyond ShardAgg::latency_le: it is read off the merged stats.
  // Null capture skips all of it.
  const bool count_latency_le = capture != nullptr;
  std::vector<obs::TraceBuffer> shard_tbuf;
  if (capture != nullptr && capture->collect_trace) {
    shard_tbuf.reserve(shards.size());
    for (std::size_t si = 0; si < shards.size(); ++si) {
      shard_tbuf.emplace_back(capture->trace_events_per_shard);
    }
  }

  itb::core::parallel_for(
      shards.size(), cfg_.num_threads, [&](std::size_t si) {
        static const std::size_t kZoneLoop = obs::prof_zone("sim.event_loop");
        const obs::ProfZone prof_loop(kZoneLoop);
        const Shard& sh = shards[si];
        const std::size_t g = sh.group;
        const mac::ReservationOutcome& oc = outcome[g];
        const double control_amortized_us =
            oc.data_slots_per_event > 0.0
                ? oc.control_overhead_us / oc.data_slots_per_event
                : 0.0;
        ShardAgg& agg = shard_agg[si];
        obs::TraceBuffer* const tbuf =
            capture != nullptr && capture->collect_trace ? &shard_tbuf[si]
                                                         : nullptr;
        // Logical Perfetto tracks: one "process" per FDMA group, one
        // "thread" per shard — functions of the topology, never of how
        // shards were scheduled onto OS threads.
        const auto pid = static_cast<std::uint32_t>(g + 1);
        const auto tid = static_cast<std::uint32_t>(si + 1);

        // Shard-local per-tag accounting: written here, then folded into
        // this shard's ShardAgg block (and copied into the global per-tag
        // array with keep_per_tag). Local slots also keep the hot loop's
        // writes dense instead of group-strided across the fleet.
        std::vector<TagStats> local(sh.end - sh.begin);
        // Payload generation time of each tag's currently-pending payload
        // (latency is measured from here to successful delivery; a failed
        // poll retries the same payload next round).
        std::vector<double> pending_since(sh.end - sh.begin, 0.0);
        std::vector<ArqProgress> progress(sh.end - sh.begin);
        for (ArqProgress& p : progress) {
          p.fallback =
              mac::RateFallbackController(cfg_.fallback, initial_waveform);
        }

        // One poll event per slot, named after its outcome. Outcomes that
        // put energy on the air are spans (dur = attempt airtime on the
        // active rung); skipped/silent slots are instants. A retransmission
        // adds an arq.retx instant right after its poll event.
        const auto record_trace = [&](double t_us, std::uint32_t tag,
                                      std::uint64_t round, PollOutcome out,
                                      mac::LinkWaveform wf, std::uint32_t ap,
                                      bool retx) {
          if (tbuf == nullptr) return;
          obs::TraceEvent e;
          e.name = poll_outcome_name(out);
          e.cat = "poll";
          e.pid = pid;
          e.tid = tid;
          e.ts_us = static_cast<std::int64_t>(t_us);
          const bool on_air = out == PollOutcome::kDelivered ||
                              out == PollOutcome::kCollision ||
                              out == PollOutcome::kDecodeFailure;
          if (on_air) {
            e.phase = obs::TracePhase::kSpan;
            e.dur_us = static_cast<std::int64_t>(
                attempt_airtime_us[static_cast<std::size_t>(wf)]);
          }
          e.args = {{{"round", round}, {"tag", tag}, {"ap", ap}}};
          e.sarg_name = "waveform";
          e.sarg = mac::waveform_name(wf);
          tbuf->push(e);
          if (retx) tbuf->instant("arq.retx", "arq", pid, tid, e.ts_us);
        };
        // A skipped or failed poll opens a disruption window; the next
        // delivered attempt closes it and records the recovery time.
        const auto mark_disrupted = [](ArqProgress& st, double t_us) {
          if (!st.disrupted) {
            st.disrupted = true;
            st.disrupted_since_us = t_us;
          }
        };
        // Advances ARQ + fallback state for one resolved attempt. Pure
        // per-tag fold: no RNG, no cross-tag state.
        const auto resolve_attempt = [&](TagStats& ts, ArqProgress& st,
                                         PollOutcome out, double t_us) {
          const bool delivered = out == PollOutcome::kDelivered;
          const mac::LinkWaveform prev_wf = st.fallback.current();
          // Only SNR-driven outcomes move the fallback ladder: a busy
          // channel (reservation denied) or an unheard query says nothing
          // about the reply waveform, and dropping the rate would only
          // lengthen the airtime it has to reserve.
          if (delivered) {
            st.fallback.on_success();
          } else if (out == PollOutcome::kCollision ||
                     out == PollOutcome::kDecodeFailure) {
            st.fallback.on_failure();
          }
          if (tbuf != nullptr && st.fallback.current() != prev_wf) {
            obs::TraceEvent e;
            e.name = delivered ? "rate.upshift" : "rate.downshift";
            e.cat = "rate";
            e.pid = pid;
            e.tid = tid;
            e.ts_us = static_cast<std::int64_t>(t_us);
            e.sarg_name = "waveform";
            e.sarg = mac::waveform_name(st.fallback.current());
            tbuf->push(e);
          }
          if (delivered) {
            st.fail_streak = 0;
            if (st.disrupted) {
              agg.recovery_time.record(t_us - st.disrupted_since_us);
              st.disrupted = false;
            }
            ++ts.messages_delivered;
            agg.retry_histogram.record(st.attempts);
            st.in_flight = false;
            return;
          }
          mark_disrupted(st, t_us);
          if (!cfg_.enable_arq) {
            ++ts.messages_dropped;
            st.in_flight = false;
            return;
          }
          ++st.fail_streak;
          if (st.attempts >= cfg_.arq.max_attempts ||
              st.retx_used >= cfg_.arq.retry_budget) {
            ++ts.messages_dropped;
            st.in_flight = false;
            return;
          }
          st.backoff_remaining = mac::backoff_slots(cfg_.arq, st.fail_streak);
        };

        // Interference bursts re-solve the reservation closed form live;
        // only the busy probability changes per reply, so one config per
        // shard keeps the hot loop free of allocations.
        mac::ReservationConfig fault_rc;
        fault_rc.scheme = cfg_.reservation;
        fault_rc.cts_detection_probability = cfg_.cts_detection_probability;

        // The shard's polls in time order, without a queue. Slot s of round
        // r is queried at r*round + s*slot on its group's timeline, and a
        // tag that answers replies mid-way through the advertising window
        // that follows (query + adv/2 later). A slot lasts query + adv, so
        // each reply lands before the shard's next query and the order is
        // Q(r,s), R(r,s), Q(r,s+1), ... The clock check turns any rounding
        // tie that would break this (a reply at or after the next query)
        // into an error instead of a silently reordered run.
        const double half_adv_us =
            0.5 * cfg_.polling.advertising_interval_ms * 1e3;
        double clock_us = -std::numeric_limits<double>::infinity();
        for (std::size_t round = 0; round < cfg_.rounds; ++round) {
          for (std::size_t slot = sh.begin; slot < sh.end; ++slot) {
            const double t_query_us = static_cast<double>(round) * round_us[g] +
                                      static_cast<double>(slot) * slot_us;
            if (!(clock_us < t_query_us)) {
              throw std::logic_error(
                  "NetworkCoordinator::run: a reply does not precede the "
                  "shard's next query (poll events out of time order)");
            }
            clock_us = t_query_us;
            const std::uint32_t tag = group_tags_[g][slot];
            const std::size_t shard_slot = slot - sh.begin;
            TagStats& ts = local[shard_slot];
            ArqProgress& st = progress[shard_slot];
            const TagLink& link = links_[tag];
            ++ts.queries_sent;
            const mac::LinkWaveform wf = st.fallback.current();

            // Fault + policy gates, cheapest first. Skipped polls make no
            // RNG draws; every (tag, round, phase) substream stays
            // independent of the gates, so the digest contract holds.
            if (link.link_down) {
              ++ts.link_down_polls;
              mark_disrupted(st, t_query_us);
              record_trace(t_query_us, tag, round, PollOutcome::kLinkDown, wf,
                           link.ap, false);
              continue;
            }
            bool failover = false;
            std::uint32_t serving_ap = link.ap;
            if (timeline_.ap_down(link.ap, t_query_us)) {
              if (link.has_failover &&
                  !timeline_.ap_down(link.failover_ap, t_query_us)) {
                failover = true;
                serving_ap = link.failover_ap;
              } else {
                ++ts.outage_skips;
                mark_disrupted(st, t_query_us);
                record_trace(t_query_us, tag, round, PollOutcome::kApOutage,
                             wf, link.ap, false);
                continue;
              }
            }
            if (timeline_.tag_browned_out(tag, t_query_us)) {
              ++ts.brownout_skips;
              mark_disrupted(st, t_query_us);
              record_trace(t_query_us, tag, round, PollOutcome::kBrownout, wf,
                           serving_ap, false);
              continue;
            }
            if (st.backoff_remaining > 0) {
              --st.backoff_remaining;
              ++ts.backoff_skips;
              record_trace(t_query_us, tag, round, PollOutcome::kBackoff, wf,
                           serving_ap, false);
              continue;
            }

            // This poll is a real delivery attempt.
            if (!st.in_flight) {
              st.in_flight = true;
              st.attempts = 0;
              st.retx_used = 0;
              ++ts.messages_offered;
            }
            const bool retx = cfg_.enable_arq && st.attempts > 0;
            if (retx) {
              ++ts.retransmissions;
              ++st.retx_used;
            }
            ++st.attempts;
            if (failover) ++ts.failover_polls;
            if (st.fallback.degraded()) ++ts.fallback_polls;

            auto query_rng = entity_stream(cfg_.seed, tag,
                                           phase_counter(round, kQueryPhase));
            const Real miss = failover ? link.failover_downlink_miss_prob
                                       : link.downlink_miss_prob;
            if (query_rng.uniform() < miss) {
              ++ts.downlink_misses;
              record_trace(t_query_us, tag, round, PollOutcome::kDownlinkMiss,
                           wf, serving_ap, retx);
              resolve_attempt(ts, st, PollOutcome::kDownlinkMiss, t_query_us);
              continue;
            }

            // Reply: reservation outcome, then budget-level decode.
            const double t_reply_us = t_query_us + query_us + half_adv_us;
            clock_us = t_reply_us;
            const auto wi = static_cast<std::size_t>(wf);
            auto reply_rng = entity_stream(cfg_.seed, tag,
                                           phase_counter(round, kReplyPhase));
            ts.airtime_us += control_amortized_us;

            const mac::ReservationOutcome* ocp = &oc;
            mac::ReservationOutcome fault_oc;
            const Real busy_boost =
                timeline_.any() ? timeline_.channel_busy_boost(g, t_reply_us)
                                : Real{0.0};
            if (busy_boost > 0.0) {
              fault_rc.channel_busy_probability = std::min(
                  channels_[g].busy_probability + busy_boost, Real{0.99});
              fault_oc = mac::reservation_outcome(fault_rc);
              ocp = &fault_oc;
            }

            const double u = reply_rng.uniform();
            if (u >= ocp->p_clean + ocp->p_collision) {
              ++ts.reservation_denied;  // silent: reservation not granted
              record_trace(t_reply_us, tag, round,
                           PollOutcome::kReservationDenied, wf, serving_ap,
                           retx);
              resolve_attempt(ts, st, PollOutcome::kReservationDenied,
                              t_reply_us);
              continue;
            }
            ts.airtime_us += attempt_airtime_us[wi];
            ts.tx_energy_nj += attempt_energy_nj[g][wi];
            if (u >= ocp->p_clean) {
              ++ts.collisions;
              record_trace(t_reply_us, tag, round, PollOutcome::kCollision, wf,
                           serving_ap, retx);
              resolve_attempt(ts, st, PollOutcome::kCollision, t_reply_us);
              continue;
            }
            // Active noise-floor faults (bursts, slumps) force the PER back
            // through the closed form at the degraded SNR; clean slots use
            // the precomputed per-rung table.
            Real per = failover ? link.failover_waveform_per[wi]
                                : link.waveform_per[wi];
            const Real rise =
                timeline_.any()
                    ? timeline_.channel_noise_rise_db(g, t_reply_us)
                    : Real{0.0};
            if (rise > 0.0) {
              const Real snr =
                  (failover ? link.failover_snr_db : link.snr_db) -
                  channels_[g].leakage_noise_rise_db - rise;
              per = waveform_per_at(wf, snr, wire_bytes_);
            }
            if (reply_rng.uniform() < per) {
              ++ts.decode_failures;
              record_trace(t_reply_us, tag, round, PollOutcome::kDecodeFailure,
                           wf, serving_ap, retx);
              resolve_attempt(ts, st, PollOutcome::kDecodeFailure, t_reply_us);
              continue;
            }
            ++ts.replies_received;
            ts.payload_bits += payload_bits;
            record_trace(t_reply_us, tag, round, PollOutcome::kDelivered, wf,
                         serving_ap, retx);
            const double done_us = t_reply_us + attempt_airtime_us[wi];
            const double latency_us = done_us - pending_since[shard_slot];
            agg.query_latency.record(latency_us);
            if (count_latency_le) {
              ++agg.latency_le[obs::le_bucket(kPollLatencyEdgesUs, latency_us)];
            }
            pending_since[shard_slot] =
                static_cast<double>(round + 1) * round_us[g];
            resolve_attempt(ts, st, PollOutcome::kDelivered, done_us);
          }
        }

        // Static per-tag link annotations + deterministic harvest model,
        // then the tag leaves the shard: folded, in slot order, into the
        // shard's block (its counters plus its goodput, duty-cycle and power
        // terms at the group's timeline length and SSB shift), and copied
        // into the tag-indexed array with keep_per_tag.
        const double elapsed = channels_[g].elapsed_us;
        for (std::size_t s = sh.begin; s < sh.end; ++s) {
          const std::uint32_t tag = group_tags_[g][s];
          TagStats& ts = local[s - sh.begin];
          const ArqProgress& st = progress[s - sh.begin];
          ts.tag_id = tag;
          ts.wifi_channel = links_[tag].wifi_channel;
          ts.helper = links_[tag].helper;
          ts.ap = links_[tag].ap;
          ts.snr_db =
              links_[tag].snr_db - channels_[g].leakage_noise_rise_db;
          ts.reply_per = links_[tag].reply_per;
          ts.rate_downshifts = st.fallback.downshifts();
          ts.rate_upshifts = st.fallback.upshifts();
          // The helper advertises every interval for the whole timeline and
          // illuminates all its tags — not just the one being polled — so
          // harvest time is independent of fleet size; the AP's queries add
          // the tag's own downlink illumination on top.
          const double adv_events =
              elapsed / (cfg_.polling.advertising_interval_ms * 1e3);
          ts.harvest_us = adv_events * 3.0 * mac::kAdvPacketUs +
                          static_cast<double>(ts.queries_sent) * query_us;
          agg += ts;
          agg.payload_bits += ts.payload_bits;
          agg.tx_energy_nj += ts.tx_energy_nj;
          agg.sum_tag_goodput +=
              mac::safe_goodput_kbps(ts.payload_bits, elapsed);
          const double airtime_duty =
              elapsed > 0.0 ? ts.airtime_us / elapsed : 0.0;
          const double harvest_duty =
              elapsed > 0.0 ? ts.harvest_us / elapsed : 0.0;
          agg.sum_airtime_duty += airtime_duty;
          agg.sum_harvest_duty += harvest_duty;
          agg.sum_power_uw += power.average_power_uw(
              cfg_.rate, shift_hz[g], std::min(airtime_duty, 1.0));
          if (cfg_.keep_per_tag) tag_stats[tag] = ts;
        }
      });

  // --- sequential, index-ordered reduction (thread-count invariant) --------
  static const std::size_t kZoneMerge = obs::prof_zone("sim.merge");
  const obs::ProfZone prof_merge(kZoneMerge);
  NetworkStats out;
  out.num_tags = n;
  out.num_channels = num_groups;
  out.channels = channels_;  // plan-time fields; replies/collisions are 0
  for (std::size_t g = 0; g < num_groups; ++g) {
    out.elapsed_us = std::max(out.elapsed_us, channels_[g].elapsed_us);
  }
  ShardAgg total;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    total.merge(shard_agg[si]);
    ChannelStats& ch = out.channels[shards[si].group];
    ch.replies += shard_agg[si].replies_received;
    ch.collisions += shard_agg[si].collisions;
  }
  static_cast<PollCounters&>(out) = total;
  out.query_latency = total.query_latency;
  out.recovery_time = total.recovery_time;
  out.retry_histogram = total.retry_histogram;
  out.aggregate_goodput_kbps =
      mac::safe_goodput_kbps(total.payload_bits, out.elapsed_us);
  const std::uint64_t completed = out.messages_delivered + out.messages_dropped;
  if (completed > 0) {
    out.delivery_ratio = static_cast<double>(out.messages_delivered) /
                         static_cast<double>(completed);
  }
  if (total.payload_bits > 0.0) {
    out.energy_per_delivered_byte_nj =
        total.tx_energy_nj / (total.payload_bits / 8.0);
  }
  if (n > 0) {
    const auto dn = static_cast<double>(n);
    out.mean_tag_goodput_kbps = total.sum_tag_goodput / dn;
    out.mean_airtime_duty = total.sum_airtime_duty / dn;
    out.mean_harvest_duty = total.sum_harvest_duty / dn;
    out.mean_tag_power_uw = total.sum_power_uw / dn;
  }
  if (cfg_.keep_per_tag) out.per_tag = std::move(tag_stats);

  if (capture != nullptr) {
    // A reused capture holds the previous run's outputs: start both afresh.
    capture->trace = obs::TraceLog{};
    capture->metrics = obs::MetricsSnapshot{};
    if (capture->collect_trace) {
      for (std::size_t g = 0; g < num_groups; ++g) {
        capture->trace.set_process_name(
            static_cast<std::uint32_t>(g + 1),
            "wifi-ch" + std::to_string(cfg_.wifi_channels[g]));
      }
      for (std::size_t si = 0; si < shards.size(); ++si) {
        capture->trace.set_thread_name(
            static_cast<std::uint32_t>(shards[si].group + 1),
            static_cast<std::uint32_t>(si + 1),
            "shard " + std::to_string(si) + " slots[" +
                std::to_string(shards[si].begin) + "," +
                std::to_string(shards[si].end) + ")");
      }
      // Fault windows get their own process so an AP reboot or microwave
      // burst reads as a span directly above the polls it disrupts.
      if (!cfg_.faults.empty()) {
        const auto fault_pid = static_cast<std::uint32_t>(num_groups + 1);
        capture->trace.set_process_name(fault_pid, "faults");
        capture->trace.set_thread_name(fault_pid, 1, "timeline");
        for (const FaultEvent& fe : cfg_.faults.events) {
          obs::TraceEvent e;
          e.name = fault_kind_name(fe.kind);
          e.cat = "fault";
          e.phase = obs::TracePhase::kSpan;
          e.pid = fault_pid;
          e.tid = 1;
          e.ts_us = static_cast<std::int64_t>(fe.start_us);
          e.dur_us = static_cast<std::int64_t>(fe.duration_us);
          e.args[0] = {"entity", fe.entity};
          capture->trace.push(e);
        }
      }
      for (const obs::TraceBuffer& b : shard_tbuf) capture->trace.absorb(b);
      capture->trace.finalize();
    }
    // The snapshot is a view of the merged stats: the counters in
    // kPollCounters order, then the latency histogram, whose count and sum
    // are the stats' own.
    for (const PollCounterRow& row : kPollCounters) {
      if (row.metric != nullptr) {
        capture->metrics.append_counter(row.metric, out.*row.field);
      }
    }
    capture->metrics.append_histogram(
        "itb.sim.poll_latency_us", kPollLatencyEdgesUs, total.latency_le,
        out.query_latency.total, out.query_latency.sum_us);
    capture->metrics.append_counter("itb.trace.events_dropped",
                                    capture->trace.dropped());
    capture->metrics.append_gauge("itb.sim.elapsed_us", out.elapsed_us);
    capture->metrics.append_gauge("itb.sim.goodput_kbps",
                                  out.aggregate_goodput_kbps);
    capture->metrics.append_gauge("itb.sim.delivery_ratio",
                                  out.delivery_ratio);
  }
  return out;
}

}  // namespace itb::sim
