// itb_perfbench: runs one end-to-end benchmark workload.
//
//   itb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (closed loop, one caller): uplink_frame, per_sweep_implant,
// fleet_ward_faults; see perfbench/README.md. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0 (this executable), per-layer metrics with --trace 1
// (itb_perfbench_traced, which counts heap allocations). Earlier lines carry
// run metadata and reference digests, for information.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "dsp/simd/dispatch.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Metric;
using perfbench::quantile;

/// Untimed closed-loop calls before measuring (thread start-up, caches,
/// CPU frequency).
constexpr double kWarmupSeconds = 1.5;
/// A set-up sample repeats one rebuild for at least this long, so that
/// microsecond set-ups are not lost in clock resolution.
constexpr double kSetupSampleSeconds = 1e-3;
/// On a shared host, other tenants slow whole stretches of a run, by up to
/// 1.6x on uplink_frame and often on one CPU at a time, while the program's
/// own per-call time holds still. The timed run is a sequence of passes (a
/// set-up sample, then one call per input), each pinned to the next CPUs in
/// turn. The passes are split into as few consecutive blocks as give
/// kMinSamples (input, block) pairs; each pair's sample is the input's
/// fastest call in the block, and the block's set-up sample its fastest.
constexpr std::size_t kMinSamples = 100;

struct Args {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") == 0 ? 0 : std::strcmp(val, "1") == 0 ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.trace >= 0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_minflt};
}

/// Peak resident set of this program, in MiB. VmHWM, unlike ru_maxrss,
/// does not carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  long kb = -1;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  if (kb < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = ru.ru_maxrss;
  }
  return static_cast<double>(kb) / 1024.0;
}

void print_meta(const Args& a) {
  const char* disable = std::getenv("ITB_DISABLE_SIMD");
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"nproc\": %ld, \"simd_level\": \"%s\", "
      "\"itb_disable_simd\": %s%s%s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}}\n",
      a.workload.c_str(), a.seed, a.seconds, a.trace, sysconf(_SC_NPROCESSORS_ONLN),
      itb::dsp::simd::level_name(itb::dsp::simd::active_level()),
      disable != nullptr ? "\"" : "", disable != nullptr ? disable : "null",
      disable != nullptr ? "\"" : "", PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// One closed-loop call; an exception counts as a failed call.
perfbench::CallResult guarded_call(perfbench::Workload& w, std::size_t i) {
  try {
    return w.call(i);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "call %zu threw: %s\n", i, e.what());
    return {};
  }
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread, and the threads it starts later, to `count`
/// CPUs of `cpus` from index `first` on, cyclically.
void pin(const std::vector<int>& cpus, std::size_t first, std::size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < count; ++j) CPU_SET(cpus[(first + j) % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Seconds per rebuild of set-up unit `u`, over at least kSetupSampleSeconds.
double setup_sample(perfbench::Workload& w, std::size_t u) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  double s = 0.0;
  do {
    w.rebuild(u);
    ++n;
    s = seconds_since(t0);
  } while (s < kSetupSampleSeconds);
  return s / static_cast<double>(n);
}

/// Timed closed loop: passes until `seconds` have passed, then the
/// end-to-end metrics from each block's fastest calls.
std::vector<Metric> timed_run(perfbench::Workload& w, double seconds,
                              std::size_t& attempted, std::size_t& failed) {
  const std::size_t inputs = w.inputs();
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;  // one sample per pass
  std::vector<double> call_s;   // pass p, input i at p * inputs + i
  std::vector<std::uint64_t> call_units;
  const auto t0 = Clock::now();
  while (setup_s.empty() || seconds_since(t0) < seconds) {
    pin(cpus, setup_s.size(), std::min(w.threads(), cpus.size()));
    setup_s.push_back(setup_sample(w, setup_s.size() % w.setup_units()));
    for (std::size_t i = 0; i < inputs; ++i) {
      const auto c0 = Clock::now();
      const perfbench::CallResult r = guarded_call(w, i);
      call_s.push_back(seconds_since(c0));
      call_units.push_back(r.units);
      ++attempted;
      if (!r.ok) ++failed;
    }
  }
  pin(cpus, 0, cpus.size());

  const std::size_t passes = setup_s.size();
  const std::size_t blocks = std::min(passes, (kMinSamples + inputs - 1) / inputs);
  std::vector<double> best_ms, best_setup_s;
  double best_total_s = 0.0;
  std::uint64_t best_units = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * passes / blocks;
    const std::size_t hi = (b + 1) * passes / blocks;
    best_setup_s.push_back(*std::min_element(setup_s.begin() + lo, setup_s.begin() + hi));
    for (std::size_t i = 0; i < inputs; ++i) {
      std::size_t best = lo * inputs + i;
      for (std::size_t p = lo + 1; p < hi; ++p) {
        if (call_s[p * inputs + i] < call_s[best]) best = p * inputs + i;
      }
      best_ms.push_back(call_s[best] * 1e3);
      best_total_s += call_s[best];
      best_units += call_units[best];
    }
  }

  const double all_s = std::accumulate(call_s.begin(), call_s.end(), 0.0);
  const std::uint64_t all_units =
      std::accumulate(call_units.begin(), call_units.end(), std::uint64_t{0});
  std::printf("{\"info\": {\"calls\": %zu, \"passes\": %zu, \"blocks\": %zu, "
              "\"samples\": %zu, \"all_calls_throughput_per_s\": %.17g}}\n",
              call_s.size(), passes, blocks, best_ms.size(),
              static_cast<double>(all_units) / all_s);
  return {
      {"setup_s", quantile(best_setup_s, 0.5), "s"},
      {"throughput_per_s", static_cast<double>(best_units) / best_total_s, "1/s"},
      {"call_ms_p50", quantile(best_ms, 0.5), "ms"},
      {"call_ms_p90", quantile(best_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  if (args.trace == 1 && !perfbench::alloc_counting_linked()) {
    std::fprintf(stderr, "--trace 1 needs the traced executable\n");
    return 2;
  }
  const auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Workload& w = *workload;
  print_meta(args);

  for (std::size_t u = 0; u < w.setup_units(); ++u) w.rebuild(u);
  bool correct = w.prepare();
  std::printf("{\"info\": {%s}}\n", w.info().c_str());

  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Exact counts over a fixed set of calls, made before the time-bounded
  // warm-up so the heap state they start from repeats for a seed. The same
  // calls run once uncounted first: first-touch faults on stack pages depend
  // on where address-space randomization put the stack.
  const std::size_t counted = args.trace == 1 ? w.count_calls() : 0;
  for (std::size_t i = 0; i < counted; ++i) correct &= guarded_call(w, i).ok;
  const Usage u0 = usage_now();
  const perfbench::AllocTally a0 = perfbench::alloc_tally();
  perfbench::alloc_counting(true);
  for (std::size_t i = 0; i < counted; ++i) {
    const perfbench::CallResult r = guarded_call(w, i);
    ++attempted;
    if (!r.ok) ++failed;
  }
  perfbench::alloc_counting(false);
  const perfbench::AllocTally a1 = perfbench::alloc_tally();
  const Usage u1 = usage_now();

  const auto warm_t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(warm_t0) < kWarmupSeconds; ++i) {
    correct &= guarded_call(w, i).ok;
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = timed_run(w, args.seconds, attempted, failed);
  } else {
    const auto calls = static_cast<double>(counted);
    const double cpu = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
    std::vector<Metric> layer;
    correct &= w.trace(args.seconds, layer);
    layer.push_back({"allocs_per_call", static_cast<double>(a1.count - a0.count) / calls, ""});
    layer.push_back({"alloc_mb_per_call",
                     static_cast<double>(a1.bytes - a0.bytes) / calls / (1024.0 * 1024.0), ""});
    layer.push_back({"minor_faults_per_call",
                     static_cast<double>(u1.minor_faults - u0.minor_faults) / calls, ""});
    layer.push_back({"sys_cpu_share", cpu > 0.0 ? (u1.sys_s - u0.sys_s) / cpu : 0.0, ""});

    metrics = perfbench::per_layer_schema();
    for (const Metric& m : layer) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [&](const Metric& s) { return s.name == m.name; });
      if (it == metrics.end()) {
        std::fprintf(stderr, "per-layer metric %s is not in the schema\n", m.name.c_str());
        return 1;
      }
      it->value = m.value;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
