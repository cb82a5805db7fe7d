// The benchmark's three workloads. Each one generates its inputs from the
// run seed, builds the library's system objects from them (set-up), then
// serves closed-loop calls into the public API and checks every output.
// `trace()` is the separate traced run: it times the public functions a
// call is built from and fills the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one closed-loop call: work units completed (frames, trials or
/// poll slots) and whether the output passed its correctness checks.
struct CallResult {
  std::uint64_t units = 0;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Distinct inputs; a pass calls each of them once, in order.
  virtual std::size_t inputs() const = 0;
  /// Threads a call runs on.
  virtual std::size_t threads() const = 0;
  /// Independently built system objects (the InterscatterSystem, one
  /// sweep config, one ward).
  virtual std::size_t setup_units() const = 0;
  /// Builds set-up unit `u` from the generated inputs, replacing the old
  /// one. This is what setup_s times.
  virtual void rebuild(std::size_t u) = 0;
  /// Untimed: reference outputs the calls are checked against. Returns false
  /// when a reference itself fails a check. Runs after every unit is built.
  virtual bool prepare() = 0;
  /// One closed-loop call on input `i % inputs()`.
  virtual CallResult call(std::size_t i) = 0;
  /// Calls 0..count_calls()-1 are the fixed set the exact counts cover.
  virtual std::size_t count_calls() const = 0;
  /// The traced run: times the public functions a call is made of for about
  /// `seconds`, appends per-layer metrics, returns false on a failed check.
  virtual bool trace(double seconds, std::vector<Metric>& out) = 0;

  /// Reference digests or failure counts, printed for information.
  virtual std::string info() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// workload reports the layers on its own path; the rest read 0.
const std::vector<Metric>& per_layer_schema();

/// Linear-interpolated quantile of an unsorted, non-empty sample.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
