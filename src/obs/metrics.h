// Deterministic metrics registry: typed counters and fixed-bucket
// histograms registered by name, accumulated in per-shard cell blocks with
// no atomics, and merged in shard-index order at join — so a metrics
// snapshot is bit-identical at any thread count (DESIGN.md "Observability
// and the determinism contract"). Gauges are not accumulated per shard:
// they are whole-run values appended to the snapshot after the merge
// (MetricsSnapshot::append_gauge).
//
// Three pieces:
//   MetricsRegistry  — the schema: names, kinds, histogram bucket edges.
//                      Built once (single-threaded) before the fan-out;
//                      registration order fixes metric ids.
//   MetricCells      — one shard's plain-value accumulation block, laid out
//                      by the schema. Cheap to create per shard, written by
//                      exactly one thread, no synchronization.
//   MetricsSnapshot  — the ordered merge of all shards' cells: JSON and
//                      Prometheus-text writers, name lookup, FNV digest.
//
// Histogram bucket semantics match Prometheus: bucket i counts samples with
// value <= upper_edges[i] (non-cumulative storage; the text writer emits
// the cumulative `le` form), plus an implicit +Inf overflow bucket.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace itb::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* metric_kind_name(MetricKind k);

using MetricId = std::size_t;

class MetricCells;
class MetricsSnapshot;

class MetricsRegistry {
 public:
  /// Registers (or re-finds, idempotently by name) a metric. Histogram
  /// edges must be strictly increasing; an implicit +Inf bucket is added.
  /// Registering an existing name with a different kind throws
  /// std::invalid_argument.
  MetricId counter(std::string name);
  MetricId histogram(std::string name, std::vector<double> upper_edges);

  /// A zeroed accumulation block laid out for this schema.
  MetricCells make_cells() const;

  /// Sequential, index-ordered reduction over shard cell blocks: counters
  /// and histograms sum. The result is independent of how the shards were
  /// scheduled onto threads.
  MetricsSnapshot merge(const std::vector<MetricCells>& shards) const;

 private:
  struct Spec {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> edges;  ///< histogram upper edges (ascending)
  };
  MetricId add(std::string name, MetricKind kind, std::vector<double> edges);

  std::vector<Spec> specs_;
};

/// One shard's metric values. Write-only during the parallel phase; the
/// registry turns a vector of these into a MetricsSnapshot at join.
class MetricCells {
 public:
  /// Counter increment.
  void add(MetricId id, std::uint64_t delta = 1) { cells_[id].count += delta; }
  /// Histogram observation.
  void observe(MetricId id, double value);

 private:
  friend class MetricsRegistry;
  struct Cell {
    std::uint64_t count = 0;  ///< counter value / histogram sample count
    double value = 0.0;       ///< histogram sample sum
    std::vector<std::uint64_t> buckets;  ///< per-bucket counts + overflow
    const std::vector<double>* edges = nullptr;  ///< borrowed from the schema
  };
  std::vector<Cell> cells_;
};

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

  /// Post-merge extras (e.g. ProfZone call counts promoted to counters).
  void append_counter(std::string name, std::uint64_t value);
  void append_gauge(std::string name, double value);

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
  friend class MetricsRegistry;
  std::vector<MetricValue> metrics_;
};

}  // namespace itb::obs
