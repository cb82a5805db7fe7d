// Wall-clock profiling zones — the ONE sanctioned wall-clock site in the
// library (DESIGN.md "Observability and the determinism contract").
//
// A ProfZone is a scoped RAII timer keyed by an interned zone name. Zones
// nest: each zone accumulates total time (entry to exit) and child time
// (time spent inside nested zones on the same thread), so reports can
// attribute *self* time per zone. Accumulation is process-wide and
// thread-safe (relaxed atomics per zone); nesting is tracked per thread.
//
// Determinism: wall-clock readings NEVER reach simulation results, stats,
// digests, or the metrics/trace exports — only the prof report, which is
// explicitly wall-clock-domain. Everything here is gated on a single
// atomic flag; when profiling is disabled (the default) a ProfZone
// construct/destruct pair costs one relaxed load and two branches, so the
// PHY hot paths can stay instrumented unconditionally.
//
// Hot-path idiom (intern once per call site, then O(1) per entry):
//   static const std::size_t kZone = obs::prof_zone("phy.fft");
//   obs::ProfZone prof(kZone);
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace itb::obs {

/// Globally enables/disables zone timing. Off by default. Toggling does not
/// clear accumulated times (see prof_reset()).
void prof_enable(bool on);

/// Zeroes every zone's accumulators (registered names survive).
void prof_reset();

/// Interns `name` and returns its stable zone id (process lifetime).
/// Thread-safe; returns the same id for the same name.
std::size_t prof_zone(const char* name);

class ProfZone {
 public:
  /// O(1): starts timing zone `zone_id` if profiling is enabled.
  explicit ProfZone(std::size_t zone_id);
  ~ProfZone();

  ProfZone(const ProfZone&) = delete;
  ProfZone& operator=(const ProfZone&) = delete;

 private:
  static constexpr std::size_t kInactive = ~std::size_t{0};
  std::size_t id_ = kInactive;
  std::int64_t start_ns_ = 0;
};

struct ProfZoneStat {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;  ///< entry-to-exit, summed over calls and threads
  double self_ms = 0.0;   ///< total minus time inside nested zones
};

/// Snapshot of every registered zone, sorted by self_ms descending.
/// total_ms sums across threads, so it can exceed wall time under
/// parallel_for fan-outs.
std::vector<ProfZoneStat> prof_report();

/// Human-readable self/total table (one `# prof ...` line per zone), plus a
/// header line with the attribution ratio of the named `root` zone: the
/// fraction of its total time spent inside named child zones. Pass nullptr
/// to skip the ratio line.
void prof_write_table(std::ostream& os, const char* root = nullptr);

}  // namespace itb::obs
