// Observability-layer suite (ctest -L obs): the metrics snapshot and trace
// log must be bit-identical at any thread count and byte-identical across
// repeat exports, the snapshot must agree with the NetworkStats it is read
// from, the trace JSON must actually parse, histogram bucket edges must
// follow the Prometheus `le` convention, and ProfZone must
// account self vs child time. The obs trace is the simulator's only
// per-poll record, so it must also carry every poll each tag's counters
// count, and its bounded per-shard rings must keep each shard's newest
// events at any thread count.
#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/monte_carlo.h"
#include "fleet_configs.h"
#include "obs/capture.h"
#include "obs/fnv1a.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "poll_trace.h"
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
// Metrics snapshot
// --------------------------------------------------------------------------

TEST(MetricsSnapshotTest, HistogramBucketEdgesFollowLeConvention) {
  const std::array<double, 3> edges = {1.0, 2.0, 5.0};
  // Bucket i counts v <= edge[i] (first matching bucket), overflow past the
  // last edge — the Prometheus `le` convention, non-cumulative storage.
  std::array<std::uint64_t, 4> buckets{};
  double sum = 0.0;
  for (const double v : {0.5, 1.0, 1.5, 5.0, 7.0}) {
    ++buckets[obs::le_bucket(edges, v)];
    sum += v;
  }
  EXPECT_EQ(obs::le_bucket(edges, 1.0), 0u);  // inclusive upper edge
  EXPECT_EQ(obs::le_bucket(edges, 7.0), 3u);  // +Inf
  obs::MetricsSnapshot snap;
  snap.append_histogram("itb.test.h", edges, buckets, 5, sum);
  const obs::MetricValue* m = snap.find("itb.test.h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kHistogram);
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

  // Buckets that do not match the edges (one per edge plus +Inf) throw.
  const std::array<std::uint64_t, 3> short_buckets{};
  EXPECT_THROW(snap.append_histogram("itb.test.bad", edges, short_buckets, 0,
                                     0.0),
               std::invalid_argument);
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
  obs::TraceEvent late;
  late.name = "late";
  late.cat = "t";
  late.phase = obs::TracePhase::kSpan;
  late.pid = 1;
  late.tid = 1;
  late.ts_us = 50;
  late.dur_us = 10;
  late.args = {{{"round", 2}, {"tag", 7}}};
  late.sarg_name = "waveform";
  late.sarg = "wifi-2M";
  obs::TraceEvent early = late;
  early.name = "early";
  early.phase = obs::TracePhase::kInstant;
  early.ts_us = 5;
  early.dur_us = 0;
  early.args = {};
  early.sarg_name = nullptr;
  log.push(late);
  log.push(early);
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
  EXPECT_FALSE(events.arr[2].has("args"));
  EXPECT_EQ(events.arr[3].at("name").str, "late");
  EXPECT_DOUBLE_EQ(events.arr[3].at("dur").number, 10.0);
  const Json& args = events.arr[3].at("args");
  EXPECT_EQ(args.obj.size(), 3u);  // unnamed third slot is not written
  EXPECT_DOUBLE_EQ(args.at("round").number, 2.0);
  EXPECT_DOUBLE_EQ(args.at("tag").number, 7.0);
  EXPECT_EQ(args.at("waveform").str, "wifi-2M");
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

    // The snapshot agrees with the stats it observed: every exported row
    // of the counter table, and the latency histogram's count and sum bit
    // for bit.
    std::size_t exported = 0;
    for (const sim::PollCounterRow& row : sim::kPollCounters) {
      if (row.metric == nullptr) continue;
      ++exported;
      const obs::MetricValue* m = capture.metrics.find(row.metric);
      ASSERT_NE(m, nullptr) << row.metric;
      EXPECT_EQ(m->kind, obs::MetricKind::kCounter) << row.metric;
      EXPECT_EQ(m->count, s.*row.field) << row.metric;
    }
    EXPECT_EQ(exported, 16u);
    const obs::MetricValue* lat =
        capture.metrics.find("itb.sim.poll_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, s.query_latency.total);
    EXPECT_EQ(lat->count, s.replies_received);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lat->value),
              std::bit_cast<std::uint64_t>(s.query_latency.sum_us));
    std::uint64_t bucketed = 0;
    for (const std::uint64_t b : lat->buckets) bucketed += b;
    EXPECT_EQ(bucketed, lat->count);
    // Whole-run gauges are appended after the shard merge.
    EXPECT_EQ(capture.metrics.gauge_value("itb.sim.delivery_ratio"),
              s.delivery_ratio);
    EXPECT_EQ(capture.metrics.gauge_value("itb.sim.goodput_kbps"),
              s.aggregate_goodput_kbps);
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
  EXPECT_EQ(s.digest(), 0x5e058c8e62ba613fULL);
  EXPECT_EQ(capture.metrics.digest(), 0x57af101132a2609fULL);
  EXPECT_EQ(fnv1a(trace_json(capture.trace)), 0x85f28d7328699ab9ULL);

  obs::RunCapture bounded;
  bounded.trace_events_per_shard = 16;
  (void)sim::NetworkCoordinator(cfg).run(&bounded);
  EXPECT_EQ(fnv1a(trace_json(bounded.trace)), 0xe7be8bb3a0df7c4aULL);
}

TEST(NetworkCaptureTest, ReusedCaptureHoldsOnlyTheLastRun) {
  // Bounded rings drop events, so the drop count is checked too: a capture
  // run twice must hold the same trace, drop count and exported drop counter
  // as a fresh one, not both runs' events, tracks and drops.
  const sim::NetworkCoordinator net(ward_config());
  obs::RunCapture fresh;
  fresh.trace_events_per_shard = 16;
  (void)net.run(&fresh);
  ASSERT_GT(fresh.trace.dropped(), 0u);

  obs::RunCapture reused;
  reused.trace_events_per_shard = 16;
  (void)net.run(&reused);
  (void)net.run(&reused);
  EXPECT_EQ(fnv1a(trace_json(reused.trace)), fnv1a(trace_json(fresh.trace)));
  EXPECT_EQ(reused.trace.dropped(), fresh.trace.dropped());
  EXPECT_EQ(reused.metrics.counter_value("itb.trace.events_dropped"),
            fresh.metrics.counter_value("itb.trace.events_dropped"));
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

TEST(NetworkCaptureTest, TraceCarriesEveryPollOfEveryTag) {
  // The obs trace is the only per-poll record, so on an unbounded capture
  // each tag's poll events must add up to that tag's counters. ward_config()
  // polls none of its outage or brownout victims inside their windows, so
  // the net_resilience ARQ grid (with backoff) adds faults that do hit and
  // replies delivered through the backup AP, and a third fleet has a NaN
  // budget, so every link is down.
  sim::NetworkConfig hit = sim::test::net_resilience_config(true);
  hit.arq.backoff_base_slots = 1;
  sim::NetworkConfig dead = ward_config();
  dead.topology.num_tags = 30;
  dead.faults = {};
  dead.tag_medium_loss_db = std::numeric_limits<double>::quiet_NaN();

  const struct {
    sim::PollOutcome outcome;
    std::uint64_t sim::PollCounters::*counter;
  } rows[] = {
      {sim::PollOutcome::kDelivered, &sim::PollCounters::replies_received},
      {sim::PollOutcome::kApOutage, &sim::PollCounters::outage_skips},
      {sim::PollOutcome::kBrownout, &sim::PollCounters::brownout_skips},
      {sim::PollOutcome::kBackoff, &sim::PollCounters::backoff_skips},
      {sim::PollOutcome::kLinkDown, &sim::PollCounters::link_down_polls},
      {sim::PollOutcome::kDownlinkMiss, &sim::PollCounters::downlink_misses},
      {sim::PollOutcome::kReservationDenied,
       &sim::PollCounters::reservation_denied},
      {sim::PollOutcome::kCollision, &sim::PollCounters::collisions},
      {sim::PollOutcome::kDecodeFailure, &sim::PollCounters::decode_failures},
  };
  sim::PollCounters fleets;
  std::uint64_t delivered_via_backup = 0;
  for (const sim::NetworkConfig& cfg : {ward_config(), hit, dead}) {
    obs::RunCapture capture;
    const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run(&capture);
    ASSERT_EQ(capture.trace.dropped(), 0u);
    ASSERT_EQ(s.per_tag.size(), cfg.topology.num_tags);
    fleets += s;

    struct Tally {
      std::map<std::string, std::uint64_t> outcomes;
      std::uint64_t retransmissions = 0;
      std::uint64_t failover_attempts = 0;
    };
    std::vector<Tally> tally(s.per_tag.size());
    for (const sim::test::TracedPoll& p :
         sim::test::traced_polls(capture.trace)) {
      ASSERT_LT(p.tag, tally.size());
      Tally& t = tally[p.tag];
      ++t.outcomes[p.outcome];
      t.retransmissions += p.retransmission ? 1 : 0;
      // failover_polls counts delivery attempts served by the backup AP. A
      // brownout or backoff slot names the AP that would have served it
      // but is not an attempt.
      const bool attempt = p.outcome != "brownout" && p.outcome != "backoff";
      const bool backup = p.ap != s.per_tag[p.tag].ap;
      t.failover_attempts += attempt && backup ? 1 : 0;
      delivered_via_backup += p.outcome == "delivered" && backup ? 1 : 0;
    }
    for (std::size_t tag = 0; tag < tally.size(); ++tag) {
      const sim::TagStats& ts = s.per_tag[tag];
      Tally& t = tally[tag];
      for (const auto& row : rows) {
        const char* name = sim::poll_outcome_name(row.outcome);
        EXPECT_EQ(t.outcomes[name], ts.*row.counter)
            << "tag " << tag << " " << name;
      }
      EXPECT_EQ(t.retransmissions, ts.retransmissions) << "tag " << tag;
      EXPECT_EQ(t.failover_attempts, ts.failover_polls) << "tag " << tag;
    }
  }
  // Every counter checked above is nonzero on some fleet.
  for (const auto& row : rows) {
    EXPECT_GT(fleets.*row.counter, 0u)
        << sim::poll_outcome_name(row.outcome) << " never fired";
  }
  EXPECT_GT(fleets.retransmissions, 0u);
  EXPECT_GT(delivered_via_backup, 0u);
}

/// One event's fields as text, for comparing events across two logs.
std::string describe(const obs::TraceEvent& e) {
  std::ostringstream os;
  os << e.name << ' ' << e.cat << ' ' << static_cast<int>(e.phase) << ' '
     << e.ts_us << ' ' << e.dur_us;
  for (const obs::TraceArg& a : e.args) {
    if (a.name != nullptr) os << ' ' << a.name << '=' << a.value;
  }
  if (e.sarg_name != nullptr) os << ' ' << e.sarg_name << '=' << e.sarg;
  return os.str();
}

/// A log's events split by (pid, tid) track, each in log order.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::string>>
events_by_track(const obs::TraceLog& log) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::string>>
      tracks;
  for (const obs::TraceEvent& e : log.events()) {
    tracks[{e.pid, e.tid}].push_back(describe(e));
  }
  return tracks;
}

TEST(NetworkCaptureTest, BoundedRingsKeepEachShardsNewestEvents) {
  // 16-event rings force drops in every busy shard. The bounded trace must
  // be the same bytes at any thread count, count every dropped event, and
  // keep exactly the newest 16 events of each shard's unbounded stream.
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 1;
  obs::RunCapture full;
  (void)sim::NetworkCoordinator(cfg).run(&full);
  ASSERT_EQ(full.trace.dropped(), 0u);
  const auto full_tracks = events_by_track(full.trace);

  std::string json_1t;
  std::uint64_t dropped_1t = 0;
  for (const std::size_t threads : {1, 2, 8}) {
    cfg.num_threads = threads;
    obs::RunCapture bounded;
    bounded.trace_events_per_shard = 16;
    (void)sim::NetworkCoordinator(cfg).run(&bounded);
    EXPECT_GT(bounded.trace.dropped(), 0u);
    EXPECT_EQ(bounded.trace.size() + bounded.trace.dropped(),
              full.trace.size());
    EXPECT_EQ(bounded.metrics.counter_value("itb.trace.events_dropped"),
              bounded.trace.dropped());
    if (threads == 1) {
      json_1t = trace_json(bounded.trace);
      dropped_1t = bounded.trace.dropped();
      const auto kept_tracks = events_by_track(bounded.trace);
      ASSERT_EQ(kept_tracks.size(), full_tracks.size());
      for (const auto& [track, all] : full_tracks) {
        const std::size_t keep = std::min<std::size_t>(all.size(), 16);
        const std::vector<std::string> newest(all.end() - keep, all.end());
        EXPECT_EQ(kept_tracks.at(track), newest)
            << "pid " << track.first << " tid " << track.second;
      }
    } else {
      EXPECT_EQ(trace_json(bounded.trace), json_1t) << threads << " threads";
      EXPECT_EQ(bounded.trace.dropped(), dropped_1t) << threads << " threads";
    }
  }
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

TEST(ProfZoneTest, DsssZonesRecordedUnderPerVsSnrWithoutChangingResults) {
  core::MonteCarloConfig cfg;
  cfg.rate = wifi::DsssRate::k11Mbps;
  cfg.psdu_bytes = 16;
  cfg.trials_per_point = 5;
  cfg.seed = 31;
  cfg.num_threads = 2;
  cfg.impairments = channel::implant_tissue_preset(11e6);
  const std::vector<double> grid{4.0, 12.0};

  obs::prof_enable(false);
  obs::prof_reset();
  const auto plain = core::per_vs_snr(cfg, grid);
  obs::prof_enable(true);
  const auto profiled = core::per_vs_snr(cfg, grid);
  obs::prof_enable(false);

  const auto stats = obs::prof_report();
  const std::uint64_t trials = grid.size() * cfg.trials_per_point;
  EXPECT_EQ(zone_calls(stats, "phy.dsss_tx"), trials);
  EXPECT_EQ(zone_calls(stats, "phy.dsss_rx"), trials);
  EXPECT_GT(zone_total_ms(stats, "phy.dsss_rx"), 0.0);

  ASSERT_EQ(plain.size(), profiled.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].per_monte_carlo, profiled[i].per_monte_carlo);
    EXPECT_EQ(plain[i].no_sync, profiled[i].no_sync);
    EXPECT_EQ(plain[i].header_fail, profiled[i].header_fail);
    EXPECT_EQ(plain[i].payload_fail, profiled[i].payload_fail);
  }
}

}  // namespace
