// Metrics snapshot: an ordered list of named counters, gauges and
// fixed-bucket histograms with JSON and Prometheus-text writers, name
// lookup and an FNV digest. It holds no accumulation state of its own: the
// caller builds it after its own reduction by appending whole-run values,
// so the snapshot is exactly as deterministic as the values it is given
// (DESIGN.md "Observability and the determinism contract"). The network
// simulator appends its poll counters and latency histogram from the
// merged NetworkStats.
//
// Histogram bucket semantics match Prometheus: bucket i counts samples with
// value <= upper_edges[i] (non-cumulative storage; the text writer emits
// the cumulative `le` form), plus an implicit +Inf overflow bucket.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace itb::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* metric_kind_name(MetricKind k);

/// Index of the `le` bucket holding `value`: the first i with
/// value <= upper_edges[i], or upper_edges.size() (the +Inf bucket).
std::size_t le_bucket(std::span<const double> upper_edges, double value);

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge value / histogram sample sum
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;  ///< size edges.size() + 1 (overflow)
};

class MetricsSnapshot {
 public:
  const MetricValue* find(std::string_view name) const;
  /// 0 / 0.0 when the metric is missing or of another kind.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  void append_counter(std::string name, std::uint64_t value);
  void append_gauge(std::string name, double value);
  /// `buckets` are non-cumulative per-`le` counts, one per edge plus the
  /// +Inf overflow (std::invalid_argument otherwise); `count` and `sum`
  /// describe the same samples.
  void append_histogram(std::string name, std::span<const double> upper_edges,
                        std::span<const std::uint64_t> buckets,
                        std::uint64_t count, double sum);

  /// `{"metrics": [{"name": ..., "kind": ..., ...}]}`; field order and
  /// float formatting are fixed, so equal snapshots serialize to equal
  /// bytes.
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition format; metric names are sanitized
  /// (`.`/`-` -> `_`).
  void write_prometheus(std::ostream& os) const;

  /// FNV-1a over every name, kind, and value bit pattern, in metric order.
  std::uint64_t digest() const;

 private:
  std::vector<MetricValue> metrics_;
};

}  // namespace itb::obs
