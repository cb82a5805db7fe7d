// Ablation — impairment presets vs the ideal radio, at waveform level.
//
// The implant scenarios (Fig. 15/16) are only trustworthy if the PER they
// quote survives the tag's real oscillator, the body channel, and a cheap
// reader ADC. This bench decodes noisy frames through each preset's full
// impairment chain at 2 and 11 Mbps and reports how far each preset moves
// the waterfall: the SNR shift against the ideal radio where PER crosses
// 0.5 and 0.1, interpolated from the bench's own rows ("never" when a
// preset's error floor stays above the target).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "channel/impairments.h"
#include "core/monte_carlo.h"

int main() {
  using namespace itb;

  bench::header("Ablation.impairments",
                "RF impairment presets: waveform PER and the measured "
                "waterfall shift",
                "presets shift the waterfall right by a fraction of a dB "
                "(implant, card) to several dB (ward); the ward preset's "
                "delay spread leaves an error floor at 11 Mbps, so its PER "
                "never reaches 0.1");

  std::vector<double> grid;
  for (int s = -2; s <= 16; ++s) grid.push_back(s);
  const double targets[] = {0.5, 0.1};
  struct Named {
    const char* name;
    channel::ImpairmentPreset preset;
  };
  const Named presets[] = {
      {"ideal", channel::ImpairmentPreset::kNone},
      {"implant_tissue", channel::ImpairmentPreset::kImplantTissue},
      {"ward_mobility", channel::ImpairmentPreset::kWardMobility},
      {"card_to_card", channel::ImpairmentPreset::kCardToCard},
  };

  for (const auto rate : {wifi::DsssRate::k2Mbps, wifi::DsssRate::k11Mbps}) {
    const std::string rate_name(wifi::rate_name(rate));
    std::optional<double> ideal_crossing[2];
    std::string shifts;
    for (const auto& p : presets) {
      core::MonteCarloConfig cfg;
      cfg.rate = rate;
      cfg.psdu_bytes = 31;
      cfg.trials_per_point = 200;
      cfg.impairments =
          channel::make_impairment_preset(p.preset, 11e6, 2.462e9);
      const auto points = core::per_vs_snr(cfg, grid);
      std::vector<double> per;
      std::printf("rate,%s,preset,%s\n", rate_name.c_str(), p.name);
      std::printf("snr_db,per_waveform\n");
      for (const auto& pt : points) {
        std::printf("%.1f,%.3f\n", pt.snr_db, pt.per_monte_carlo);
        per.push_back(pt.per_monte_carlo);
      }
      shifts += p.name;
      for (std::size_t k = 0; k < 2; ++k) {
        const auto crossing = bench::per_crossing_db(grid, per, targets[k]);
        if (p.preset == channel::ImpairmentPreset::kNone) {
          ideal_crossing[k] = crossing;
        }
        std::optional<double> shift;
        if (crossing && ideal_crossing[k]) shift = *crossing - *ideal_crossing[k];
        shifts += "," + bench::db_or_never(shift);
      }
      shifts += "\n";
    }
    std::printf("# %s: waterfall shift vs ideal (dB) at PER 0.5 and 0.1\n",
                rate_name.c_str());
    std::printf("preset,shift_db_per_0.5,shift_db_per_0.1\n%s", shifts.c_str());
  }
  return 0;
}
