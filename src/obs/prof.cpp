// ProfZone implementation. This file is the single sanctioned wall-clock
// site in src/ — detlint carves src/obs/ out of the wall-clock rule, and
// the explicit allow() below documents the intent at the call site itself.
//
// Accumulators live in a fixed-capacity static array so zone entry/exit is
// lock-free: registration (mutex-guarded) never moves an accumulator, and
// ids index immutable storage. kMaxZones overflow falls back to one shared
// "<overflow>" bucket rather than failing.
#include "obs/prof.h"

#include <algorithm>
#include <array>
#include <atomic>
// detlint: allow(wall-clock)
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>

namespace itb::obs {

namespace {

constexpr std::size_t kMaxZones = 256;

struct ZoneAccum {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> child_ns{0};
};

std::atomic<bool> g_enabled{false};

ZoneAccum& zone_accum(std::size_t id) {
  static std::array<ZoneAccum, kMaxZones> accum;
  return accum[id];
}

struct ZoneNames {
  std::mutex mu;
  std::map<std::string, std::size_t> ids;
  std::array<std::string, kMaxZones> names;
  std::size_t count = 0;
};

ZoneNames& names() {
  static ZoneNames n;
  return n;
}

/// Per-thread stack of open zones: each frame accumulates the time spent in
/// nested (child) zones so the parent can report self time.
thread_local std::vector<std::uint64_t> t_child_ns_stack;

std::int64_t now_ns() {
  // The sanctioned wall-clock read (see file comment).
  // detlint: allow(wall-clock)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void prof_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void prof_reset() {
  ZoneNames& n = names();
  const std::lock_guard<std::mutex> lock(n.mu);
  for (std::size_t i = 0; i < n.count; ++i) {
    ZoneAccum& z = zone_accum(i);
    z.calls.store(0, std::memory_order_relaxed);
    z.total_ns.store(0, std::memory_order_relaxed);
    z.child_ns.store(0, std::memory_order_relaxed);
  }
}

std::size_t prof_zone(const char* name) {
  ZoneNames& n = names();
  const std::lock_guard<std::mutex> lock(n.mu);
  const auto it = n.ids.find(name);
  if (it != n.ids.end()) return it->second;
  if (n.count + 1 >= kMaxZones) {
    // Everything past the capacity shares the overflow bucket.
    n.names[kMaxZones - 1] = "<overflow>";
    n.count = kMaxZones;
    return kMaxZones - 1;
  }
  const std::size_t id = n.count++;
  n.ids.emplace(name, id);
  n.names[id] = name;
  return id;
}

ProfZone::ProfZone(std::size_t zone_id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  id_ = zone_id;
  t_child_ns_stack.push_back(0);
  start_ns_ = now_ns();
}

ProfZone::~ProfZone() {
  if (id_ == kInactive) return;
  const auto dur = static_cast<std::uint64_t>(
      std::max<std::int64_t>(now_ns() - start_ns_, 0));
  const std::uint64_t child = t_child_ns_stack.back();
  t_child_ns_stack.pop_back();
  ZoneAccum& z = zone_accum(id_);
  z.calls.fetch_add(1, std::memory_order_relaxed);
  z.total_ns.fetch_add(dur, std::memory_order_relaxed);
  z.child_ns.fetch_add(child, std::memory_order_relaxed);
  if (!t_child_ns_stack.empty()) t_child_ns_stack.back() += dur;
}

std::vector<ProfZoneStat> prof_report() {
  ZoneNames& n = names();
  std::vector<ProfZoneStat> out;
  {
    const std::lock_guard<std::mutex> lock(n.mu);
    out.reserve(n.count);
    for (std::size_t i = 0; i < n.count; ++i) {
      const ZoneAccum& z = zone_accum(i);
      ProfZoneStat s;
      s.name = n.names[i];
      s.calls = z.calls.load(std::memory_order_relaxed);
      const auto total = z.total_ns.load(std::memory_order_relaxed);
      const auto child = z.child_ns.load(std::memory_order_relaxed);
      s.total_ms = static_cast<double>(total) * 1e-6;
      s.self_ms = static_cast<double>(total - std::min(child, total)) * 1e-6;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ProfZoneStat& a, const ProfZoneStat& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;
            });
  return out;
}

void prof_write_table(std::ostream& os, const char* root) {
  const auto stats = prof_report();
  if (root != nullptr) {
    for (const ProfZoneStat& s : stats) {
      if (s.name != root || s.total_ms <= 0.0) continue;
      const double attributed = (s.total_ms - s.self_ms) / s.total_ms;
      os << "# prof: " << root << " attribution "
         << static_cast<int>(attributed * 100.0 + 0.5)
         << "% of wall time in named child zones\n";
    }
  }
  os << "# prof: zone                          calls    total_ms     self_ms\n";
  for (const ProfZoneStat& s : stats) {
    if (s.calls == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "# prof: %-28s %8llu %11.3f %11.3f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.calls),
                  s.total_ms, s.self_ms);
    os << line;
  }
}

}  // namespace itb::obs
