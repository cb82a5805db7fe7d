#include "obs/trace.h"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "obs/fnv1a.h"

namespace itb::obs {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

std::vector<TraceEvent> TraceBuffer::drain() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void TraceLog::set_process_name(std::uint32_t pid, std::string name) {
  tracks_.push_back({pid, 0, true, std::move(name)});
}

void TraceLog::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                               std::string name) {
  tracks_.push_back({pid, tid, false, std::move(name)});
}

void TraceLog::absorb(const TraceBuffer& shard) {
  const std::vector<TraceEvent> events = shard.drain();
  events_.insert(events_.end(), events.begin(), events.end());
  dropped_ += shard.dropped();
}

void TraceLog::finalize() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_us, a.pid, a.tid) <
                            std::tie(b.ts_us, b.pid, b.tid);
                   });
}

void TraceLog::write_perfetto_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const TrackName& t : tracks_) {
    sep();
    if (t.is_process) {
      os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << t.pid
         << ", \"args\": {\"name\": ";
    } else {
      os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << t.pid
         << ", \"tid\": " << t.tid << ", \"args\": {\"name\": ";
    }
    write_json_string(os, t.name);
    os << "}}";
  }
  for (const TraceEvent& e : events_) {
    sep();
    os << "{\"ph\": \"" << (e.phase == TracePhase::kSpan ? "X" : "i")
       << "\", \"name\": \"" << e.name << "\", \"cat\": \"" << e.cat
       << "\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"ts\": " << e.ts_us;
    if (e.phase == TracePhase::kSpan) {
      os << ", \"dur\": " << e.dur_us;
    } else {
      os << ", \"s\": \"t\"";  // instant scoped to its thread track
    }
    bool has_args = false;
    const auto arg_key = [&](const char* name) {
      os << (has_args ? ", \"" : ", \"args\": {\"") << name << "\": ";
      has_args = true;
    };
    for (const TraceArg& a : e.args) {
      if (a.name == nullptr) continue;
      arg_key(a.name);
      os << a.value;
    }
    if (e.sarg_name != nullptr) {
      arg_key(e.sarg_name);
      os << "\"" << e.sarg << "\"";
    }
    os << (has_args ? "}}" : "}");
  }
  os << "\n]}\n";
}

std::uint64_t TraceLog::digest() const {
  Fnv1a h;
  for (const TraceEvent& e : events_) {
    h.mix(e.name);
    h.mix(e.cat);
    h.mix(static_cast<std::uint64_t>(e.phase));
    h.mix(static_cast<std::uint64_t>(e.pid));
    h.mix(static_cast<std::uint64_t>(e.tid));
    h.mix(static_cast<std::uint64_t>(e.ts_us));
    h.mix(static_cast<std::uint64_t>(e.dur_us));
    for (const TraceArg& a : e.args) {
      if (a.name == nullptr) continue;
      h.mix(a.name);
      h.mix(a.value);
    }
    if (e.sarg_name != nullptr) {
      h.mix(e.sarg_name);
      h.mix(e.sarg);
    }
  }
  h.mix(static_cast<std::uint64_t>(events_.size()));
  return h.value();
}

}  // namespace itb::obs
