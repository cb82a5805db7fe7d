#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/fnv1a.h"

namespace itb::obs {

namespace {

/// Shortest round-trip decimal form, fixed across platforms for identical
/// doubles — the property the byte-identical snapshot contract needs.
void write_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricId MetricsRegistry::add(std::string name, MetricKind kind,
                              std::vector<double> edges) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name != name) continue;
    if (specs_[i].kind != kind) {
      throw std::invalid_argument("MetricsRegistry: `" + name +
                                  "` re-registered with a different kind");
    }
    return i;
  }
  if (kind == MetricKind::kHistogram) {
    if (edges.empty()) {
      throw std::invalid_argument("MetricsRegistry: `" + name +
                                  "` histogram needs at least one edge");
    }
    if (!std::is_sorted(edges.begin(), edges.end()) ||
        std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
      throw std::invalid_argument("MetricsRegistry: `" + name +
                                  "` edges must be strictly increasing");
    }
  }
  specs_.push_back({std::move(name), kind, std::move(edges)});
  return specs_.size() - 1;
}

MetricId MetricsRegistry::counter(std::string name) {
  return add(std::move(name), MetricKind::kCounter, {});
}

MetricId MetricsRegistry::histogram(std::string name,
                                    std::vector<double> upper_edges) {
  return add(std::move(name), MetricKind::kHistogram, std::move(upper_edges));
}

MetricCells MetricsRegistry::make_cells() const {
  MetricCells cells;
  cells.cells_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].kind != MetricKind::kHistogram) continue;
    cells.cells_[i].buckets.assign(specs_[i].edges.size() + 1, 0);
    cells.cells_[i].edges = &specs_[i].edges;
  }
  return cells;
}

void MetricCells::observe(MetricId id, double value) {
  Cell& c = cells_[id];
  ++c.count;
  c.value += value;
  const std::vector<double>& edges = *c.edges;
  // Linear scan: sim histograms have ~a dozen buckets, and the upper-edge
  // comparison (<=) matches the Prometheus `le` convention exactly.
  std::size_t b = edges.size();  // overflow (+Inf) by default
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (value <= edges[i]) {
      b = i;
      break;
    }
  }
  ++c.buckets[b];
}

MetricsSnapshot MetricsRegistry::merge(
    const std::vector<MetricCells>& shards) const {
  MetricsSnapshot snap;
  snap.metrics_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    MetricValue mv;
    mv.name = specs_[i].name;
    mv.kind = specs_[i].kind;
    mv.edges = specs_[i].edges;
    if (mv.kind == MetricKind::kHistogram) {
      mv.buckets.assign(mv.edges.size() + 1, 0);
    }
    // Shard order is the reduction order: deterministic because the shard
    // list is a fixed partition, never a function of thread scheduling.
    for (const MetricCells& shard : shards) {
      const MetricCells::Cell& c = shard.cells_[i];
      mv.count += c.count;
      if (mv.kind != MetricKind::kHistogram) continue;
      mv.value += c.value;
      for (std::size_t b = 0; b < mv.buckets.size(); ++b) {
        mv.buckets[b] += c.buckets[b];
      }
    }
    snap.metrics_.push_back(std::move(mv));
  }
  return snap;
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->count : 0;
}

double MetricsSnapshot::gauge_value(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kGauge) ? m->value : 0.0;
}

void MetricsSnapshot::append_counter(std::string name, std::uint64_t value) {
  MetricValue mv;
  mv.name = std::move(name);
  mv.kind = MetricKind::kCounter;
  mv.count = value;
  metrics_.push_back(std::move(mv));
}

void MetricsSnapshot::append_gauge(std::string name, double value) {
  MetricValue mv;
  mv.name = std::move(name);
  mv.kind = MetricKind::kGauge;
  mv.value = value;
  metrics_.push_back(std::move(mv));
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    os << "    {\"name\": \"" << m.name << "\", \"kind\": \""
       << metric_kind_name(m.kind) << "\", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "\"value\": " << m.count;
        break;
      case MetricKind::kGauge:
        os << "\"value\": ";
        write_double(os, m.value);
        break;
      case MetricKind::kHistogram: {
        os << "\"count\": " << m.count << ", \"sum\": ";
        write_double(os, m.value);
        os << ", \"buckets\": [";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          os << "{\"le\": ";
          if (b < m.edges.size()) {
            write_double(os, m.edges[b]);
          } else {
            os << "\"+Inf\"";
          }
          os << ", \"count\": " << m.buckets[b] << "}";
          if (b + 1 < m.buckets.size()) os << ", ";
        }
        os << "]";
        break;
      }
    }
    os << "}" << (i + 1 < metrics_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void MetricsSnapshot::write_prometheus(std::ostream& os) const {
  for (const MetricValue& m : metrics_) {
    const std::string name = prometheus_name(m.name);
    os << "# TYPE " << name << " " << metric_kind_name(m.kind) << "\n";
    switch (m.kind) {
      case MetricKind::kCounter:
        os << name << " " << m.count << "\n";
        break;
      case MetricKind::kGauge:
        os << name << " ";
        write_double(os, m.value);
        os << "\n";
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          cumulative += m.buckets[b];
          os << name << "_bucket{le=\"";
          if (b < m.edges.size()) {
            write_double(os, m.edges[b]);
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative << "\n";
        }
        os << name << "_sum ";
        write_double(os, m.value);
        os << "\n" << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
}

std::uint64_t MetricsSnapshot::digest() const {
  Fnv1a h;
  for (const MetricValue& m : metrics_) {
    h.mix(m.name);
    h.mix(static_cast<std::uint64_t>(m.kind));
    h.mix(m.count);
    h.mix(m.value);
    for (const double e : m.edges) h.mix(e);
    for (const std::uint64_t b : m.buckets) h.mix(b);
  }
  return h.value();
}

}  // namespace itb::obs
