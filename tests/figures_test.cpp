// Output pins of the figure, ablation and table benches: each one's stdout
// must hash (64-bit FNV-1a, obs/fnv1a.h) to the value recorded below. The
// benches print fixed-seed CSV through printf, so any change to a model, a
// constant or a summation order that moves a printed digit shows up here.
// A change that moves a figure on purpose re-records its hash here, with
// the reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ios>
#include <set>
#include <string>
#include <string_view>

#include "obs/fnv1a.h"

namespace {

struct FigurePin {
  const char* bench;
  std::uint64_t stdout_fnv1a;
};

constexpr FigurePin kPins[] = {
    {"ablation_guard_interval", 0x698fe6ad41a53b44ULL},
    {"ablation_impairments", 0xd940dce23de1a11eULL},
    {"ablation_per_model", 0x5cac3014c9105642ULL},
    {"ablation_shift_frequency", 0xa10952aee30d7b3aULL},
    {"fig06_sideband_spectrum", 0x79a05aa28c67a82dULL},
    {"fig09_single_tone", 0x3b0983c4db1b6242ULL},
    {"fig10_wifi_rssi", 0x7ead0c4ae78122a4ULL},
    {"fig11_wifi_per", 0x23bf9b9158d927eaULL},
    {"fig12_iperf_coexistence", 0x6828b651436547f1ULL},
    {"fig13_downlink_ber", 0x6efe039a34a819c5ULL},
    {"fig14_zigbee_rssi", 0x13995207d6a3c725ULL},
    {"fig15_contact_lens", 0x9f16baab70e220a3ULL},
    {"fig16_neural_implant", 0xaac4b6e6334ae10dULL},
    {"fig17_card_to_card", 0x101b4e2ffbc0ed36ULL},
    {"tab_payload_budget", 0x9c3174f5520422aeULL},
    {"tab_power_breakdown", 0x5361597a53484268ULL},
    {"tab_scrambler_seeds", 0xc25e189115ef7769ULL},
};

/// Runs `bench` from the bench build directory and hashes its stdout.
/// Fails the test when the bench cannot start or exits non-zero.
std::uint64_t stdout_hash(const std::string& bench) {
  const std::string path = std::string(FIGURE_BENCH_DIR) + "/" + bench;
  std::FILE* pipe = popen(path.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << path;
  if (pipe == nullptr) return 0;
  itb::obs::Fnv1a h;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    h.bytes(std::string_view(buf, n));
  }
  EXPECT_EQ(pclose(pipe), 0) << path;
  return h.value();
}

TEST(Figures, EveryFigureBenchIsPinned) {
  // FIGURE_BENCHES is the build's list of figure/ablation/table benches,
  // comma-separated: a new bench needs a pin before it can land.
  std::set<std::string> built;
  const std::string_view list = FIGURE_BENCHES;
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t end = std::min(list.find(',', at), list.size());
    built.emplace(list.substr(at, end - at));
    at = end + 1;
  }
  std::set<std::string> pinned;
  for (const FigurePin& p : kPins) pinned.emplace(p.bench);
  EXPECT_EQ(built, pinned);
}

TEST(Figures, StdoutMatchesRecordedHashes) {
  for (const FigurePin& p : kPins) {
    const std::uint64_t got = stdout_hash(p.bench);
    EXPECT_EQ(got, p.stdout_fnv1a) << p.bench << " hashes to 0x" << std::hex
                                   << got;
  }
}

}  // namespace
