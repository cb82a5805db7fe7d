// Shared output helpers for the figure/table reproduction binaries.
//
// Every bench prints:
//   # <figure id>: <description>
//   # paper: <the shape the paper reports>
//   CSV rows reproducing the figure's series
// so EXPERIMENTS.md can be regenerated by eyeballing bench output.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace itb::bench {

inline void header(const std::string& id, const std::string& what,
                   const std::string& paper_shape) {
  std::printf("# %s: %s\n", id.c_str(), what.c_str());
  std::printf("# paper: %s\n", paper_shape.c_str());
}

inline void note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
}

/// SNR (dB) at which a PER curve sampled at ascending `snr_db` first falls
/// to `target_per`, linearly interpolated between the two grid points that
/// bracket the crossing. The grid's first SNR when the curve starts at or
/// below the target; nullopt when it never gets there (an error floor).
inline std::optional<double> per_crossing_db(const std::vector<double>& snr_db,
                                             const std::vector<double>& per,
                                             double target_per) {
  for (std::size_t i = 0; i < per.size(); ++i) {
    if (per[i] > target_per) continue;
    if (i == 0) return snr_db[0];
    const double frac = (per[i - 1] - target_per) / (per[i - 1] - per[i]);
    return snr_db[i - 1] + frac * (snr_db[i] - snr_db[i - 1]);
  }
  return std::nullopt;
}

/// "%.2f" of a dB value, or "never" for a curve that does not reach it.
inline std::string db_or_never(std::optional<double> db) {
  if (!db) return "never";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", *db);
  return buf;
}

}  // namespace itb::bench
