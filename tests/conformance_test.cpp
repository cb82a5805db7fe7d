// Golden-vector conformance suite: pins the encoders to standards-derived
// reference vectors checked in under tests/golden/. Every vector was
// generated from first-principles implementations of the spec definitions
// (IEEE 802.11-2016, IEEE 802.15.4-2011, BT Core Spec), independent of the
// library code — so these tests anchor the library to the standards, not to
// itself. Runs under the `conformance` ctest label.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phycommon/crc.h"
#include "phycommon/lfsr.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "zigbee/oqpsk.h"

namespace itb {
namespace {

using dsp::Real;

std::vector<std::string> golden_lines(const std::string& name) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

std::vector<Real> parse_reals(const std::string& line) {
  std::istringstream ss(line);
  std::vector<Real> out;
  Real v;
  while (ss >> v) out.push_back(v);
  return out;
}

// --- 802.11b Barker ------------------------------------------------------

TEST(Conformance, BarkerSequence) {
  const auto lines = golden_lines("barker11.txt");
  ASSERT_EQ(lines.size(), 1u);
  const auto ref = parse_reals(lines[0]);
  ASSERT_EQ(ref.size(), wifi::kBarker.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(static_cast<int>(ref[i]), wifi::kBarker[i]) << "chip " << i;
  }
}

// --- 802.15.4 chip table --------------------------------------------------

TEST(Conformance, ZigbeeChipTable) {
  const auto lines = golden_lines("zigbee_chip_table.txt");
  ASSERT_EQ(lines.size(), 16u);
  for (unsigned sym = 0; sym < 16; ++sym) {
    ASSERT_EQ(lines[sym].size(), zigbee::kChipsPerSymbol) << "symbol " << sym;
    const auto chips = zigbee::symbol_chips(sym);
    for (std::size_t c = 0; c < zigbee::kChipsPerSymbol; ++c) {
      EXPECT_EQ(lines[sym][c] - '0', chips[c])
          << "symbol " << sym << " chip " << c;
    }
  }
}

// --- CCK codewords --------------------------------------------------------

TEST(Conformance, Cck5_5Codewords) {
  const auto lines = golden_lines("cck_codewords_5_5.txt");
  ASSERT_EQ(lines.size(), 4u);
  const wifi::CckModulator mod(wifi::DsssRate::k5_5Mbps);
  for (const auto& line : lines) {
    const auto vals = parse_reals(line);
    ASSERT_EQ(vals.size(), 2u + 16u);
    const std::uint8_t d2 = static_cast<std::uint8_t>(vals[0]);
    const std::uint8_t d3 = static_cast<std::uint8_t>(vals[1]);
    const std::array<std::uint8_t, 2> data = {d2, d3};
    const auto p = mod.data_phases(std::span<const std::uint8_t>(data));
    const auto cw = wifi::cck_codeword(0, p[0], p[1], p[2]);
    for (std::size_t c = 0; c < cw.size(); ++c) {
      EXPECT_NEAR(cw[c].real(), vals[2 + 2 * c], 1e-9)
          << "d2=" << int(d2) << " d3=" << int(d3) << " chip " << c;
      EXPECT_NEAR(cw[c].imag(), vals[3 + 2 * c], 1e-9)
          << "d2=" << int(d2) << " d3=" << int(d3) << " chip " << c;
    }
  }
}

TEST(Conformance, Cck11Codewords) {
  const auto lines = golden_lines("cck_codewords_11.txt");
  ASSERT_EQ(lines.size(), 64u);
  const wifi::CckModulator mod(wifi::DsssRate::k11Mbps);
  for (const auto& line : lines) {
    const auto vals = parse_reals(line);
    ASSERT_EQ(vals.size(), 6u + 16u);
    std::array<std::uint8_t, 6> data{};
    for (int i = 0; i < 6; ++i) data[i] = static_cast<std::uint8_t>(vals[i]);
    const auto p = mod.data_phases(std::span<const std::uint8_t>(data));
    const auto cw = wifi::cck_codeword(0, p[0], p[1], p[2]);
    for (std::size_t c = 0; c < cw.size(); ++c) {
      EXPECT_NEAR(cw[c].real(), vals[6 + 2 * c], 1e-9) << "chip " << c;
      EXPECT_NEAR(cw[c].imag(), vals[7 + 2 * c], 1e-9) << "chip " << c;
    }
  }
}

// --- scramblers -----------------------------------------------------------

TEST(Conformance, DsssScramblerSyncField) {
  const auto lines = golden_lines("dsss_scrambler_sync.txt");
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].size(), 128u);
  phy::DsssScrambler scrambler(0x6C);
  const phy::Bits ones(128, 1);
  const phy::Bits sync = scrambler.scramble(ones);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(lines[0][i] - '0', sync[i]) << "bit " << i;
  }
}

TEST(Conformance, OfdmScramblerAllOnesSequence) {
  const auto lines = golden_lines("ofdm_scrambler_127.txt");
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].size(), 127u);
  const phy::Bits seq = phy::OfdmScrambler::sequence(0x7F, 127);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(lines[0][i] - '0', seq[i]) << "bit " << i;
  }
  // Period-127 property from the polynomial's maximal length.
  const phy::Bits twice = phy::OfdmScrambler::sequence(0x7F, 254);
  for (std::size_t i = 0; i < 127; ++i) EXPECT_EQ(twice[i], twice[i + 127]);
}

// --- BLE whitener ---------------------------------------------------------

TEST(Conformance, BleWhiteningSequences) {
  for (const unsigned ch : {37u, 38u, 39u}) {
    const auto lines =
        golden_lines("ble_whitening_ch" + std::to_string(ch) + ".txt");
    ASSERT_EQ(lines.size(), 1u);
    ASSERT_EQ(lines[0].size(), 40u);
    const phy::Bits seq = phy::BleWhitener::sequence(ch, 40);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(lines[0][i] - '0', seq[i]) << "channel " << ch << " bit " << i;
    }
  }
}

// --- CRC check values -----------------------------------------------------

TEST(Conformance, CrcCheckValues) {
  const auto lines = golden_lines("crc_checks.txt");
  ASSERT_EQ(lines.size(), 3u);
  const phy::Bytes data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (const auto& line : lines) {
    std::istringstream ss(line);
    std::string name, hex;
    ss >> name >> hex;
    const std::uint32_t expect =
        static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
    if (name == "crc32_ieee") {
      EXPECT_EQ(phy::crc32_ieee(data), expect);
    } else if (name == "crc16_802154") {
      EXPECT_EQ(phy::crc16_802154(data), expect);
    } else if (name == "crc16_x25") {
      EXPECT_EQ(phy::crc16_x25(data), expect);
    } else {
      FAIL() << "unknown CRC name in golden file: " << name;
    }
  }
}

}  // namespace
}  // namespace itb
