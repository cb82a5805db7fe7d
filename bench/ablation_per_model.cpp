// Ablation — closed-form PER model vs waveform-level Monte Carlo.
//
// The range/PER figures (10, 11, 15, 16) use the closed-form DQPSK/CCK
// model for speed; this bench pins it against the real receive chain by
// decoding hundreds of noisy frames per SNR point at 2 and 11 Mbps, and
// prints the gap between the two waterfalls: the Monte Carlo's SNR minus
// the closed form's where each crosses PER 0.5 and 0.1, interpolated from
// the rows (positive = the closed form is optimistic).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/monte_carlo.h"

int main() {
  using namespace itb;

  bench::header("Ablation.per", "closed-form PER vs waveform Monte Carlo",
                "the closed form sits left of the waveform waterfall at "
                "both 2 and 11 Mbps; the gap rows measure by how much");

  std::vector<double> grid;
  for (int half_db = -8; half_db <= 20; ++half_db) grid.push_back(0.5 * half_db);
  const double targets[] = {0.5, 0.1};
  std::string gaps;
  for (const auto rate : {wifi::DsssRate::k2Mbps, wifi::DsssRate::k11Mbps}) {
    core::MonteCarloConfig cfg;
    cfg.rate = rate;
    cfg.psdu_bytes = rate == wifi::DsssRate::k2Mbps ? 31 : 77;
    cfg.trials_per_point = 400;
    const auto points = core::per_vs_snr(cfg, grid);
    const std::string rate_name(wifi::rate_name(rate));
    std::printf("rate,%s\n", rate_name.c_str());
    std::printf("snr_db,per_monte_carlo,per_closed_form\n");
    std::vector<double> mc;
    std::vector<double> closed;
    for (const auto& p : points) {
      std::printf("%.1f,%.3f,%.3f\n", p.snr_db, p.per_monte_carlo,
                  p.per_closed_form);
      mc.push_back(p.per_monte_carlo);
      closed.push_back(p.per_closed_form);
    }
    gaps += rate_name;
    for (const double target : targets) {
      const auto at_mc = bench::per_crossing_db(grid, mc, target);
      const auto at_closed = bench::per_crossing_db(grid, closed, target);
      std::optional<double> gap;
      if (at_mc && at_closed) gap = *at_mc - *at_closed;
      gaps += "," + bench::db_or_never(gap);
    }
    gaps += "\n";
  }
  std::printf("# gap: waveform MC SNR minus closed-form SNR (dB) at PER 0.5 "
              "and 0.1\n");
  std::printf("rate,gap_db_per_0.5,gap_db_per_0.1\n%s", gaps.c_str());
  return 0;
}
