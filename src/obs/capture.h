// RunCapture: the opt-in observation bundle a caller hands to
// NetworkCoordinator::run(). Null pointer (the default) means zero
// observation work beyond a branch per hook — the path every existing
// caller and benchmark takes. Non-null turns on sim-time tracing and the
// metrics snapshot. Both are bit-identical at any thread count: trace
// events are collected in per-shard rings absorbed in shard-index order,
// and the snapshot is read off the merged NetworkStats.
#pragma once

#include <cstddef>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace itb::obs {

struct RunCapture {
  /// Collect sim-time trace events (poll slots, ARQ attempts, fault
  /// windows, rate-fallback decisions). Metrics are always collected when a
  /// RunCapture is attached; tracing is the heavier half and gets its own
  /// switch.
  bool collect_trace = true;

  /// Per-shard trace ring capacity (oldest-drop beyond this; drops are
  /// counted in `trace.dropped()` and surfaced as
  /// `itb.trace.events_dropped`).
  std::size_t trace_events_per_shard = 1 << 16;

  /// Outputs, replaced by each run(): trace is finalized (merged + sorted)
  /// and the metrics snapshot holds the run's counters, latency histogram
  /// and whole-run gauges.
  TraceLog trace;
  MetricsSnapshot metrics;
};

}  // namespace itb::obs
