#include "obs/metrics.h"

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

std::size_t le_bucket(std::span<const double> upper_edges, double value) {
  // Linear scan: sim histograms have ~a dozen buckets, and the upper-edge
  // comparison (<=) matches the Prometheus `le` convention exactly.
  for (std::size_t i = 0; i < upper_edges.size(); ++i) {
    if (value <= upper_edges[i]) return i;
  }
  return upper_edges.size();
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

void MetricsSnapshot::append_histogram(std::string name,
                                       std::span<const double> upper_edges,
                                       std::span<const std::uint64_t> buckets,
                                       std::uint64_t count, double sum) {
  if (buckets.size() != upper_edges.size() + 1) {
    throw std::invalid_argument("MetricsSnapshot: `" + name +
                                "` needs one bucket per edge plus +Inf");
  }
  MetricValue mv;
  mv.name = std::move(name);
  mv.kind = MetricKind::kHistogram;
  mv.count = count;
  mv.value = sum;
  mv.edges.assign(upper_edges.begin(), upper_edges.end());
  mv.buckets.assign(buckets.begin(), buckets.end());
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
