// Observability-layer suite (ctest -L obs): the metrics registry and trace
// log must be bit-identical at any thread count and byte-identical across
// repeat exports, the trace JSON must actually parse, histogram bucket
// edges must follow the Prometheus `le` convention, ProfZone must account
// self vs child time, and the PollRecord ring must drop oldest-first
// without touching the digest.
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "obs/capture.h"
#include "obs/fnv1a.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/network.h"

namespace {

using namespace itb;

// --------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: enough to round-trip the writers'
// output and prove well-formedness (objects, arrays, strings, numbers,
// bools, null; no escapes beyond \" and \\, which is all the writers emit).
// --------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::out_of_range("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool parse(Json& out) {
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool value(Json& out) {
    skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.type = Json::Type::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(Json& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = Json::Type::kNumber;
    out.number = std::stod(std::string(s_.substr(start, pos_ - start)));
    return true;
  }
  bool array(Json& out) {
    out.type = Json::Type::kArray;
    ++pos_;  // '['
    skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(Json& out) {
    out.type = Json::Type::kObject;
    ++pos_;  // '{'
    skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!value(v)) return false;
      out.obj.emplace(std::move(key), std::move(v));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------
// Shared fixture config: a fault-injected resilient ward, small enough to
// run at three thread counts in milliseconds but wide enough that 8 threads
// actually interleave (shard_tags 64 -> ~16 shards).
// --------------------------------------------------------------------------

sim::NetworkConfig ward_config() {
  sim::NetworkConfig cfg;
  cfg.topology.kind = sim::TopologyKind::kHospitalWard;
  cfg.topology.num_tags = 1000;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = 8;
  cfg.detector_sensitivity_dbm = -49.0;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 4;
  cfg.seed = 77;
  cfg.shard_tags = 64;
  cfg.enable_arq = true;
  cfg.fallback.enable_rate_fallback = true;
  cfg.ap_failover = true;
  cfg.keep_trace = true;
  cfg.faults.ap_outage(0, 1e6, 2e6);
  cfg.faults.interference(6, 2e6, 1e6, 18.0);
  cfg.faults.brownout(5, 5e5, 5e5);
  return cfg;
}

std::string metrics_json(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_json(os);
  return os.str();
}

std::string metrics_prom(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_prometheus(os);
  return os.str();
}

std::string trace_json(const obs::TraceLog& log) {
  std::ostringstream os;
  log.write_perfetto_json(os);
  return os.str();
}

// --------------------------------------------------------------------------
// Metrics registry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndTypeChecked) {
  obs::MetricsRegistry reg;
  const obs::MetricId a = reg.counter("itb.test.a");
  EXPECT_EQ(reg.counter("itb.test.a"), a);
  EXPECT_NE(reg.gauge("itb.test.b"), a);
  EXPECT_THROW(reg.gauge("itb.test.a"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("itb.test.h", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("itb.test.h", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("itb.test.h", {1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesFollowLeConvention) {
  obs::MetricsRegistry reg;
  const obs::MetricId h = reg.histogram("itb.test.h", {1.0, 2.0, 5.0});
  obs::MetricCells cells = reg.make_cells();
  // Bucket i counts v <= edge[i] (first matching bucket), overflow past the
  // last edge — the Prometheus `le` convention, non-cumulative storage.
  cells.observe(h, 0.5);   // bucket 0
  cells.observe(h, 1.0);   // bucket 0 (inclusive upper edge)
  cells.observe(h, 1.5);   // bucket 1
  cells.observe(h, 5.0);   // bucket 2
  cells.observe(h, 7.0);   // overflow
  const obs::MetricsSnapshot snap = reg.merge({cells});
  const obs::MetricValue* m = snap.find("itb.test.h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 5u);
  EXPECT_DOUBLE_EQ(m->value, 0.5 + 1.0 + 1.5 + 5.0 + 7.0);
  ASSERT_EQ(m->buckets.size(), 4u);
  EXPECT_EQ(m->buckets[0], 2u);
  EXPECT_EQ(m->buckets[1], 1u);
  EXPECT_EQ(m->buckets[2], 1u);
  EXPECT_EQ(m->buckets[3], 1u);

  // The Prometheus writer emits the cumulative form.
  const std::string prom = metrics_prom(snap);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"5\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_count 5"), std::string::npos);
}

TEST(MetricsRegistryTest, MergeSumsCountersAndKeepsLastGaugeInShardOrder) {
  obs::MetricsRegistry reg;
  const obs::MetricId c = reg.counter("itb.test.c");
  const obs::MetricId g = reg.gauge("itb.test.g");
  obs::MetricCells s0 = reg.make_cells();
  obs::MetricCells s1 = reg.make_cells();
  obs::MetricCells s2 = reg.make_cells();
  s0.add(c, 3);
  s2.add(c, 4);
  s0.set(g, 1.0);
  s1.set(g, 2.0);
  // s2 never sets the gauge: the merged value is the last *set* in shard
  // order, not the last shard.
  const obs::MetricsSnapshot snap = reg.merge({s0, s1, s2});
  EXPECT_EQ(snap.counter_value("itb.test.c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("itb.test.g"), 2.0);
}

// --------------------------------------------------------------------------
// Trace buffer / log
// --------------------------------------------------------------------------

TEST(TraceBufferTest, DropsOldestWhenFull) {
  obs::TraceBuffer buf(4);
  for (int i = 1; i <= 6; ++i) {
    buf.instant("e", "t", 1, 1, i);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  const std::vector<obs::TraceEvent> kept = buf.drain();
  ASSERT_EQ(kept.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(kept[i].ts_us, i + 3);
}

TEST(TraceLogTest, ExportParsesAndOrdersByTime) {
  obs::TraceLog log;
  log.set_process_name(1, "proc \"one\"");  // exercises string escaping
  log.set_thread_name(1, 1, "thread");
  log.span("late", "t", 1, 1, 50, 10);
  log.instant("early", "t", 1, 1, 5);
  log.finalize();
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(std::string(log.events()[0].name), "early");

  Json doc;
  ASSERT_TRUE(JsonParser(trace_json(log)).parse(doc));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  // 2 metadata records + 2 data events.
  ASSERT_EQ(events.arr.size(), 4u);
  EXPECT_EQ(events.arr[0].at("ph").str, "M");
  EXPECT_EQ(events.arr[0].at("args").at("name").str, "proc \"one\"");
  EXPECT_EQ(events.arr[2].at("name").str, "early");
  EXPECT_EQ(events.arr[3].at("name").str, "late");
  EXPECT_DOUBLE_EQ(events.arr[3].at("dur").number, 10.0);
}

// --------------------------------------------------------------------------
// Network capture: determinism + export stability
// --------------------------------------------------------------------------

TEST(NetworkCaptureTest, SnapshotAndTraceAreThreadCountInvariant) {
  sim::NetworkConfig cfg = ward_config();

  // Reference: no capture attached — observing must not perturb results.
  cfg.num_threads = 1;
  const std::uint64_t bare_digest = sim::NetworkCoordinator(cfg).run().digest();

  std::vector<std::uint64_t> stat_digests;
  std::vector<std::uint64_t> metric_digests;
  std::vector<std::uint64_t> trace_digests;
  std::vector<std::string> json_exports;
  std::vector<std::string> prom_exports;
  std::vector<std::string> trace_exports;
  for (const std::size_t threads : {1, 2, 8}) {
    cfg.num_threads = threads;
    obs::RunCapture capture;
    const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run(&capture);
    stat_digests.push_back(s.digest());
    metric_digests.push_back(capture.metrics.digest());
    trace_digests.push_back(capture.trace.digest());
    json_exports.push_back(metrics_json(capture.metrics));
    prom_exports.push_back(metrics_prom(capture.metrics));
    trace_exports.push_back(trace_json(capture.trace));

    // The snapshot agrees with the stats it observed.
    EXPECT_EQ(capture.metrics.counter_value("itb.sim.polls_total"),
              s.queries_sent);
    EXPECT_EQ(capture.metrics.counter_value("itb.sim.replies_total"),
              s.replies_received);
    EXPECT_EQ(capture.metrics.counter_value("itb.arq.retries"),
              s.retransmissions);
    EXPECT_EQ(capture.metrics.counter_value("itb.faults.outage_skips"),
              s.outage_skips);
    const obs::MetricValue* lat =
        capture.metrics.find("itb.sim.poll_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, s.replies_received);
    EXPECT_GT(capture.trace.size(), 0u);
  }
  for (std::size_t i = 1; i < stat_digests.size(); ++i) {
    EXPECT_EQ(stat_digests[i], stat_digests[0]);
    EXPECT_EQ(metric_digests[i], metric_digests[0]);
    EXPECT_EQ(trace_digests[i], trace_digests[0]);
    EXPECT_EQ(json_exports[i], json_exports[0]) << "JSON export not byte-stable";
    EXPECT_EQ(prom_exports[i], prom_exports[0]);
    EXPECT_EQ(trace_exports[i], trace_exports[0]);
  }
  EXPECT_EQ(stat_digests[0], bare_digest)
      << "attaching a RunCapture changed the simulation result";
}

std::uint64_t fnv1a(std::string_view bytes) {
  obs::Fnv1a h;
  h.bytes(bytes);
  return h.value();
}

TEST(NetworkCaptureTest, CaptureDigestsPinned) {
  // The fault-injected capture's metrics snapshot and Perfetto JSON export
  // (FNV-1a over its bytes), pinned to recorded values rather than to a
  // second run of the same build. The 16-event per-shard rings keep only
  // each shard's newest events, so that export also pins the order in
  // which every shard handles its polls, not just the set of outcomes.
  const sim::NetworkConfig cfg = ward_config();
  obs::RunCapture capture;
  const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run(&capture);
  EXPECT_EQ(s.digest(), 0xe774b24ac24890ddULL);
  EXPECT_EQ(capture.metrics.digest(), 0x098b29c02030db59ULL);
  EXPECT_EQ(fnv1a(trace_json(capture.trace)), 0xcdb806285ccb98fbULL);

  obs::RunCapture bounded;
  bounded.trace_events_per_shard = 16;
  (void)sim::NetworkCoordinator(cfg).run(&bounded);
  EXPECT_EQ(fnv1a(trace_json(bounded.trace)), 0xcd1cce903261ef8eULL);
}

TEST(NetworkCaptureTest, TraceJsonParsesBackWithFaultSpans) {
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 2;
  obs::RunCapture capture;
  (void)sim::NetworkCoordinator(cfg).run(&capture);

  Json doc;
  ASSERT_TRUE(JsonParser(trace_json(capture.trace)).parse(doc));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);

  std::size_t data_events = 0;
  std::size_t fault_spans = 0;
  std::size_t poll_events = 0;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    const std::string& ph = e.at("ph").str;
    if (ph == "M") continue;
    ++data_events;
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    EXPECT_TRUE(e.has("ts"));
    if (ph == "X") {
      EXPECT_TRUE(e.has("dur"));
    }
    const std::string& cat = e.at("cat").str;
    if (cat == "fault") {
      ++fault_spans;
      EXPECT_EQ(ph, "X");
    }
    if (cat == "poll") ++poll_events;
  }
  EXPECT_EQ(data_events, capture.trace.size());
  // The three scheduled faults all appear as spans.
  EXPECT_EQ(fault_spans, 3u);
  EXPECT_GT(poll_events, 0u);
}

TEST(NetworkCaptureTest, TraceRingDropsOldestAndCountsThem) {
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 2;
  obs::RunCapture capture;
  capture.trace_events_per_shard = 16;  // force per-shard drops
  (void)sim::NetworkCoordinator(cfg).run(&capture);
  EXPECT_GT(capture.trace.dropped(), 0u);
  EXPECT_EQ(capture.metrics.counter_value("itb.trace.events_dropped"),
            capture.trace.dropped());
}

// --------------------------------------------------------------------------
// PollRecord trace hardening (NetworkConfig::trace_capacity)
// --------------------------------------------------------------------------

TEST(PollTraceCapacityTest, KeepsNewestRecordsAndCountsDrops) {
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 1;
  const sim::NetworkStats full = sim::NetworkCoordinator(cfg).run();
  ASSERT_GT(full.trace.size(), 256u);
  EXPECT_EQ(full.trace_dropped, 0u);

  cfg.trace_capacity = 256;
  for (const std::size_t threads : {1, 2, 8}) {
    cfg.num_threads = threads;
    const sim::NetworkStats bounded = sim::NetworkCoordinator(cfg).run();
    ASSERT_EQ(bounded.trace.size(), 256u);
    EXPECT_EQ(bounded.trace_dropped, full.trace.size() - 256u);
    // Oldest-drop: the kept window is exactly the tail of the full trace,
    // at any thread count.
    const std::size_t off = full.trace.size() - 256u;
    for (std::size_t i = 0; i < 256u; ++i) {
      EXPECT_EQ(bounded.trace[i].time_us, full.trace[off + i].time_us);
      EXPECT_EQ(bounded.trace[i].tag, full.trace[off + i].tag);
      EXPECT_EQ(bounded.trace[i].outcome, full.trace[off + i].outcome);
    }
    // The knob never touches the result identity.
    EXPECT_EQ(bounded.digest(), full.digest());
  }

  // The drop counter surfaces through the metrics registry.
  cfg.num_threads = 1;
  obs::RunCapture capture;
  const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run(&capture);
  EXPECT_EQ(capture.metrics.counter_value("itb.sim.trace_records_dropped"),
            s.trace_dropped);
}

// --------------------------------------------------------------------------
// ProfZone
// --------------------------------------------------------------------------

/// Busy-spins long enough to be measurable; returns a value so the loop
/// can't be optimized away.
std::uint64_t spin(std::uint64_t iters) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

double zone_total_ms(const std::vector<obs::ProfZoneStat>& stats,
                     const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.total_ms;
  }
  return -1.0;
}

double zone_self_ms(const std::vector<obs::ProfZoneStat>& stats,
                    const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.self_ms;
  }
  return -1.0;
}

std::uint64_t zone_calls(const std::vector<obs::ProfZoneStat>& stats,
                         const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.calls;
  }
  return 0;
}

TEST(ProfZoneTest, NestingAttributesSelfTime) {
  obs::prof_enable(true);
  obs::prof_reset();
  const std::size_t outer = obs::prof_zone("test.outer");
  const std::size_t inner = obs::prof_zone("test.inner");
  for (int rep = 0; rep < 3; ++rep) {
    obs::ProfZone po(outer);
    spin(400000);
    {
      obs::ProfZone pi(inner);
      spin(400000);
    }
  }
  obs::prof_enable(false);

  const auto stats = obs::prof_report();
  EXPECT_EQ(zone_calls(stats, "test.outer"), 3u);
  EXPECT_EQ(zone_calls(stats, "test.inner"), 3u);
  const double outer_total = zone_total_ms(stats, "test.outer");
  const double outer_self = zone_self_ms(stats, "test.outer");
  const double inner_total = zone_total_ms(stats, "test.inner");
  ASSERT_GT(outer_total, 0.0);
  ASSERT_GT(inner_total, 0.0);
  // The inner zone nests inside the outer one, so outer self = outer total
  // minus inner total (exactly, by construction of the child-time stack).
  EXPECT_GT(outer_total, inner_total);
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);

  std::ostringstream table;
  obs::prof_write_table(table, "test.outer");
  EXPECT_NE(table.str().find("test.outer"), std::string::npos);
  EXPECT_NE(table.str().find("attribution"), std::string::npos);
}

TEST(ProfZoneTest, DisabledZonesCostNothingAndCountNothing) {
  obs::prof_enable(false);
  obs::prof_reset();
  const std::size_t zone = obs::prof_zone("test.disabled");
  for (int i = 0; i < 1000; ++i) {
    obs::ProfZone p(zone);
  }
  EXPECT_EQ(zone_calls(obs::prof_report(), "test.disabled"), 0u);
}

}  // namespace
