// Sim-time event tracing in Chrome/Perfetto `trace_event` JSON.
//
// Events carry *simulation* timestamps (µs), never wall clock, so a trace
// is a pure function of the run's inputs: bit-identical at any thread
// count and byte-identical across repeat exports (DESIGN.md "Observability
// and the determinism contract").
//
// Collection mirrors the simulator's reduction discipline:
//   TraceBuffer — one shard's bounded ring of events (oldest-drop), written
//                 by exactly one thread, no synchronization.
//   TraceLog    — absorbs the shard buffers in shard-index order at join,
//                 stable-sorts by (ts, pid, tid), and serializes. Also
//                 accepts direct emission from single-threaded phases
//                 (e.g. fault windows emitted before the fan-out).
//
// The pid/tid mapping is logical, not OS-level: one "process" per AP /
// channel group (plus a dedicated faults process), one "thread" per shard —
// both are functions of the topology, not of scheduling, so the same run
// always produces the same track layout in ui.perfetto.dev.
//
// Event names / categories / argument names are `const char*` and must
// point at storage that outlives the log (string literals at every call
// site in practice) — emission stays allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace itb::obs {

enum class TracePhase : std::uint8_t { kSpan = 0, kInstant = 1 };

/// A named numeric argument; a null name marks an unused slot.
struct TraceArg {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  TracePhase phase = TracePhase::kInstant;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;          ///< spans only
  /// Optional numeric arguments, written in slot order. Three slots fit
  /// the largest user: a poll's round, tag and serving AP.
  std::array<TraceArg, 3> args{};
  const char* sarg_name = nullptr;  ///< optional string argument
  const char* sarg = nullptr;
};

/// One shard's event ring. Bounded: when full, the oldest event is dropped
/// and counted, so a long fault night degrades to "most recent window"
/// instead of unbounded memory.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void instant(const char* name, const char* cat, std::uint32_t pid,
               std::uint32_t tid, std::int64_t ts_us) {
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = TracePhase::kInstant;
    e.pid = pid;
    e.tid = tid;
    e.ts_us = ts_us;
    push(e);
  }

  void push(const TraceEvent& e) {
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    ring_[head_] = e;  // overwrite the oldest
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::size_t size() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Events in emission order (oldest surviving first).
  std::vector<TraceEvent> drain() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
};

/// The merged, ordered trace plus its track metadata.
class TraceLog {
 public:
  /// Track naming (emitted as `ph:"M"` metadata events, before any data).
  void set_process_name(std::uint32_t pid, std::string name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  /// Direct emission for single-threaded phases.
  void push(const TraceEvent& e) { events_.push_back(e); }

  /// Appends one shard's surviving events; call in shard-index order so the
  /// pre-sort layout is scheduling-independent.
  void absorb(const TraceBuffer& shard);

  /// Stable sort by (ts_us, pid, tid): equal keys keep absorb order, which
  /// shard-index-ordered absorption already made deterministic.
  void finalize();

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Chrome trace-event JSON (`{"traceEvents": [...]}`), loadable in
  /// ui.perfetto.dev or chrome://tracing. Field order and formatting are
  /// fixed: equal logs serialize to equal bytes.
  void write_perfetto_json(std::ostream& os) const;

  /// FNV-1a over every event's fields in order (names included).
  std::uint64_t digest() const;

 private:
  struct TrackName {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;  ///< unused for process names
    bool is_process = true;
    std::string name;
  };
  std::vector<TrackName> tracks_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace itb::obs
