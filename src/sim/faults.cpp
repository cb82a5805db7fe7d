#include "sim/faults.h"

#include <algorithm>
#include <cmath>

#include "sim/entity_stream.h"

namespace itb::sim {

namespace {

/// Substream salts per fault class, XORed into the schedule seed so the
/// same entity index never shares a stream across classes.
constexpr std::uint64_t kApSalt = 0xA9'0000'0001ULL;
constexpr std::uint64_t kChannelSalt = 0xA9'0000'0002ULL;
constexpr std::uint64_t kTagSalt = 0xA9'0000'0003ULL;
constexpr std::uint64_t kSlumpSalt = 0xA9'0000'0004ULL;

/// Deterministic event count for an expected value `rate`: the integer
/// part always happens, the fractional part is one Bernoulli draw.
std::size_t draw_count(itb::dsp::Xoshiro256& rng, double rate) {
  if (rate <= 0.0) return 0;
  const double whole = std::floor(rate);
  std::size_t n = static_cast<std::size_t>(whole);
  if (rng.uniform() < rate - whole) ++n;
  return n;
}

double draw_exponential_us(itb::dsp::Xoshiro256& rng, double mean_us) {
  // Inverse CDF with the u=0 edge nudged away from log(0).
  const double u = std::max(rng.uniform(), 1e-12);
  return -mean_us * std::log(u);
}

}  // namespace

FaultSchedule& FaultSchedule::ap_outage(std::uint32_t ap, double start_us,
                                        double duration_us) {
  events.push_back({FaultKind::kApOutage, ap, start_us, duration_us, 0.0});
  return *this;
}

FaultSchedule& FaultSchedule::interference(unsigned wifi_channel,
                                           double start_us, double duration_us,
                                           Real noise_rise_db) {
  events.push_back({FaultKind::kInterference, wifi_channel, start_us,
                    duration_us, noise_rise_db});
  return *this;
}

FaultSchedule& FaultSchedule::brownout(std::uint32_t tag, double start_us,
                                       double duration_us) {
  events.push_back({FaultKind::kBrownout, tag, start_us, duration_us, 0.0});
  return *this;
}

FaultSchedule& FaultSchedule::snr_slump(double start_us, double duration_us,
                                        Real depth_db) {
  events.push_back(
      {FaultKind::kSnrSlump, 0, start_us, duration_us, depth_db});
  return *this;
}

FaultSchedule generate_fault_schedule(const FaultProfile& profile,
                                      std::size_t num_aps,
                                      const std::vector<unsigned>& wifi_channels,
                                      std::size_t num_tags,
                                      std::uint64_t seed) {
  FaultSchedule out;
  if (profile.horizon_us <= 0.0) return out;

  const auto draw_events = [&](std::uint64_t salt, std::uint32_t entity,
                               double rate, double mean_us, auto&& emit) {
    auto rng = entity_stream(seed ^ salt, entity, 0);
    const std::size_t n = draw_count(rng, rate);
    for (std::size_t k = 0; k < n; ++k) {
      const double start = rng.uniform() * profile.horizon_us;
      const double dur = draw_exponential_us(rng, mean_us);
      emit(start, dur);
    }
  };

  for (std::uint32_t ap = 0; ap < num_aps; ++ap) {
    draw_events(kApSalt, ap, profile.outages_per_ap, profile.outage_mean_us,
                [&](double s, double d) { out.ap_outage(ap, s, d); });
  }
  for (std::size_t g = 0; g < wifi_channels.size(); ++g) {
    draw_events(kChannelSalt, static_cast<std::uint32_t>(g),
                profile.bursts_per_channel, profile.burst_mean_us,
                [&](double s, double d) {
                  out.interference(wifi_channels[g], s, d,
                                   profile.burst_rise_db);
                });
  }
  for (std::uint32_t t = 0; t < num_tags; ++t) {
    draw_events(kTagSalt, t, profile.brownouts_per_tag,
                profile.brownout_mean_us,
                [&](double s, double d) { out.brownout(t, s, d); });
  }
  draw_events(kSlumpSalt, 0, profile.snr_slumps, profile.slump_mean_us,
              [&](double s, double d) {
                out.snr_slump(s, d, profile.slump_depth_db);
              });
  return out;
}

FaultTimeline::FaultTimeline(const FaultSchedule& schedule, std::size_t num_aps,
                             const std::vector<unsigned>& wifi_channels,
                             std::size_t num_tags) {
  ap_.assign(num_aps, {});
  channel_.assign(wifi_channels.size(), {});
  tag_.assign(num_tags, {});

  for (const FaultEvent& ev : schedule.events) {
    if (!(ev.duration_us > 0.0)) continue;
    const Interval iv{ev.start_us, ev.end_us(), ev.magnitude_db};
    switch (ev.kind) {
      case FaultKind::kApOutage:
        if (ev.entity < ap_.size()) {
          ap_[ev.entity].push_back(iv);
          any_ = true;
        }
        break;
      case FaultKind::kInterference:
        for (std::size_t g = 0; g < wifi_channels.size(); ++g) {
          if (wifi_channels[g] == ev.entity) {
            channel_[g].push_back(iv);
            any_ = true;
          }
        }
        break;
      case FaultKind::kBrownout:
        if (ev.entity < tag_.size()) {
          tag_[ev.entity].push_back(iv);
          any_ = true;
        }
        break;
      case FaultKind::kSnrSlump:
        slumps_.push_back(iv);
        any_ = true;
        break;
    }
  }

  const auto by_start = [](const Interval& a, const Interval& b) {
    return a.start_us < b.start_us;
  };
  for (auto& v : ap_) std::sort(v.begin(), v.end(), by_start);
  for (auto& v : channel_) std::sort(v.begin(), v.end(), by_start);
  for (auto& v : tag_) std::sort(v.begin(), v.end(), by_start);
  std::sort(slumps_.begin(), slumps_.end(), by_start);
}

bool FaultTimeline::active(const std::vector<Interval>& v, double t_us) {
  for (const Interval& iv : v) {
    if (iv.start_us > t_us) break;  // sorted by start
    if (t_us < iv.end_us) return true;
  }
  return false;
}

Real FaultTimeline::active_db(const std::vector<Interval>& v, double t_us) {
  Real db = 0.0;
  for (const Interval& iv : v) {
    if (iv.start_us > t_us) break;
    if (t_us < iv.end_us) db += iv.magnitude_db;
  }
  return db;
}

bool FaultTimeline::ap_down(std::uint32_t ap, double t_us) const {
  if (!any_ || ap >= ap_.size()) return false;
  return active(ap_[ap], t_us);
}

bool FaultTimeline::tag_browned_out(std::uint32_t tag, double t_us) const {
  if (!any_ || tag >= tag_.size()) return false;
  return active(tag_[tag], t_us);
}

Real FaultTimeline::channel_noise_rise_db(std::size_t group,
                                          double t_us) const {
  if (!any_) return 0.0;
  Real rise = active_db(slumps_, t_us);
  if (group < channel_.size()) rise += active_db(channel_[group], t_us);
  return rise;
}

Real FaultTimeline::channel_busy_boost(std::size_t group, double t_us) const {
  if (!any_ || group >= channel_.size()) return 0.0;
  const Real rise = active_db(channel_[group], t_us);
  if (rise <= 0.0) return 0.0;
  return 1.0 - std::exp(-rise / 10.0);
}

}  // namespace itb::sim
