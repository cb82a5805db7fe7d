#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "obs/fnv1a.h"

namespace itb::sim {

std::size_t LatencyHistogram::bin_for(double us) {
  if (!(us > kFloorUs)) return 0;
  const double b = std::log(us / kFloorUs) / std::log(kGrowth);
  const auto idx = static_cast<std::size_t>(b);
  return std::min(idx, kBins - 1);
}

double LatencyHistogram::bin_upper_us(std::size_t b) {
  return kFloorUs * std::pow(kGrowth, static_cast<double>(b) + 1.0);
}

void LatencyHistogram::record(double us) {
  ++counts[bin_for(us)];
  ++total;
  sum_us += us;
  max_us = std::max(max_us, us);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBins; ++b) counts[b] += other.counts[b];
  total += other.total;
  sum_us += other.sum_us;
  max_us = std::max(max_us, other.max_us);
}

double LatencyHistogram::quantile_us(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank 1 is the lowest sample: q = 0 must not land on an empty bin 0.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    seen += counts[b];
    if (seen >= target) return bin_upper_us(b);
  }
  return bin_upper_us(kBins - 1);
}

void RetryHistogram::record(std::size_t attempts) {
  if (attempts == 0) attempts = 1;
  ++counts[std::min(attempts - 1, kBins - 1)];
  ++total;
  sum_attempts += attempts;
}

void RetryHistogram::merge(const RetryHistogram& other) {
  for (std::size_t b = 0; b < kBins; ++b) counts[b] += other.counts[b];
  total += other.total;
  sum_attempts += other.sum_attempts;
}

double RetryHistogram::mean_attempts() const {
  return total == 0 ? 0.0
                    : static_cast<double>(sum_attempts) /
                          static_cast<double>(total);
}

const char* poll_outcome_name(PollOutcome o) {
  switch (o) {
    case PollOutcome::kDelivered: return "delivered";
    case PollOutcome::kDownlinkMiss: return "downlink_miss";
    case PollOutcome::kReservationDenied: return "reservation_denied";
    case PollOutcome::kCollision: return "collision";
    case PollOutcome::kDecodeFailure: return "decode_failure";
    case PollOutcome::kBackoff: return "backoff";
    case PollOutcome::kBrownout: return "brownout";
    case PollOutcome::kApOutage: return "ap_outage";
    case PollOutcome::kLinkDown: return "link_down";
  }
  return "?";
}

namespace {

using obs::Fnv1a;

void mix_histogram(Fnv1a& h, const LatencyHistogram& lat) {
  for (const auto c : lat.counts) h.mix(c);
  h.mix(lat.total);
  h.mix(lat.sum_us);
  h.mix(lat.max_us);
}

void mix_retry_histogram(Fnv1a& h, const RetryHistogram& r) {
  for (const auto c : r.counts) h.mix(c);
  h.mix(r.total);
  h.mix(r.sum_attempts);
}

}  // namespace

std::uint64_t NetworkStats::digest() const {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(num_tags));
  h.mix(static_cast<std::uint64_t>(num_channels));
  h.mix(elapsed_us);
  h.mix(queries_sent);
  h.mix(replies_received);
  h.mix(downlink_misses);
  h.mix(reservation_denied);
  h.mix(collisions);
  h.mix(decode_failures);
  h.mix(aggregate_goodput_kbps);
  h.mix(mean_tag_goodput_kbps);
  mix_histogram(h, query_latency);
  h.mix(mean_airtime_duty);
  h.mix(mean_harvest_duty);
  h.mix(mean_tag_power_uw);
  h.mix(messages_offered);
  h.mix(messages_delivered);
  h.mix(messages_dropped);
  h.mix(retransmissions);
  h.mix(backoff_skips);
  h.mix(brownout_skips);
  h.mix(outage_skips);
  h.mix(link_down_polls);
  h.mix(failover_polls);
  h.mix(fallback_polls);
  h.mix(delivery_ratio);
  mix_retry_histogram(h, retry_histogram);
  mix_histogram(h, recovery_time);
  h.mix(energy_per_delivered_byte_nj);
  for (const ChannelStats& c : channels) {
    h.mix(static_cast<std::uint64_t>(c.wifi_channel));
    h.mix(static_cast<std::uint64_t>(c.tags));
    h.mix(c.occupancy);
    h.mix(c.leakage_noise_rise_db);
    h.mix(c.busy_probability);
    h.mix(c.replies);
    h.mix(c.collisions);
    h.mix(c.elapsed_us);
  }
  for (const TagStats& t : per_tag) {
    h.mix(static_cast<std::uint64_t>(t.tag_id));
    h.mix(static_cast<std::uint64_t>(t.wifi_channel));
    h.mix(static_cast<std::uint64_t>(t.helper));
    h.mix(static_cast<std::uint64_t>(t.ap));
    h.mix(t.queries_sent);
    h.mix(t.replies_received);
    h.mix(t.downlink_misses);
    h.mix(t.reservation_denied);
    h.mix(t.collisions);
    h.mix(t.decode_failures);
    h.mix(t.payload_bits);
    h.mix(t.airtime_us);
    h.mix(t.harvest_us);
    h.mix(t.snr_db);
    h.mix(t.reply_per);
    h.mix(t.messages_offered);
    h.mix(t.messages_delivered);
    h.mix(t.messages_dropped);
    h.mix(t.retransmissions);
    h.mix(t.backoff_skips);
    h.mix(t.brownout_skips);
    h.mix(t.outage_skips);
    h.mix(t.link_down_polls);
    h.mix(t.failover_polls);
    h.mix(t.fallback_polls);
    h.mix(t.rate_downshifts);
    h.mix(t.rate_upshifts);
    h.mix(t.tx_energy_nj);
  }
  return h.value();
}

}  // namespace itb::sim
