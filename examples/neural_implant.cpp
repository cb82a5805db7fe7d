// Implanted neural recording interface (paper §5.2 / Fig. 2b).
//
// An 8-channel ECoG front-end samples local field potentials; the implant
// streams frames at 11 Mbps through 1.6 mm of tissue to a phone, while the
// phone sends configuration commands back over the OFDM-AM downlink
// (query-reply protocol, §2.5).
#include <cstdio>

#include "channel/antenna.h"
#include "channel/tissue.h"
#include "core/downlink.h"
#include "core/interscatter.h"
#include "dsp/rng.h"
#include "mac/query_reply.h"
#include "sim/network.h"
#include "wifi/rates.h"

namespace {

/// One ECoG frame: 8 channels x 25 samples of 10-bit data packed to bytes.
itb::phy::Bytes make_ecog_frame(itb::dsp::Xoshiro256& rng, std::uint16_t seq) {
  itb::phy::Bytes out;
  out.push_back(static_cast<std::uint8_t>(seq & 0xFF));
  out.push_back(static_cast<std::uint8_t>(seq >> 8));
  // 8 ch x 25 samples x 10 bits = 2000 bits = 250 bytes... trimmed to fit
  // the 11 Mbps budget of 209 bytes per BLE advertisement (paper §2.3.3):
  // 8 ch x 20 samples = 1600 bits = 200 bytes.
  for (int i = 0; i < 200; ++i) {
    out.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
  }
  return out;
}

}  // namespace

int main() {
  using namespace itb;
  using channel::kInchesToMeters;

  std::printf("=== implanted ECoG interface -> phone ===\n\n");

  // Uplink at 11 Mbps through muscle tissue.
  const auto muscle = channel::muscle_2g4();
  const double tissue_db = channel::tissue_loss_db(muscle, 2.45e9, 1.6e-3) +
                           channel::interface_loss_db(muscle, 2.45e9) + 11.0;

  core::UplinkScenario s;
  s.ble_tx_power_dbm = 10.0;
  s.ble_tag_distance_m = 3.0 * kInchesToMeters;
  s.rate = wifi::DsssRate::k11Mbps;
  s.tag_antenna = channel::neural_implant_loop();
  s.tag_medium_loss_db = tissue_db;
  s.pathloss_exponent = 1.8;

  dsp::Xoshiro256 rng(42);
  std::printf("streaming 8-channel ECoG frames (202 B at 11 Mbps):\n");
  for (const double d_in : {6.0, 18.0, 36.0}) {
    s.tag_rx_distance_m = d_in * kInchesToMeters;
    const core::InterscatterSystem sys(s);
    const auto frame = make_ecog_frame(rng, 1);
    const auto b = sys.budget(frame.size());
    // Each BLE advertising event (20 ms) carries one frame: effective
    // application goodput.
    const double goodput_kbps = frame.size() * 8.0 / 20.0;
    std::printf("  phone at %4.0f in: RSSI %6.1f dBm PER %.3f -> %.0f kbps "
                "sustained ECoG stream\n",
                d_in, b.rssi_dbm, b.per, goodput_kbps * (1.0 - b.per));
  }

  // Downlink: phone reconfigures the implant (gain, channel mask) over
  // OFDM-AM. The implant's peak detector needs > -32 dBm.
  std::printf("\ndownlink commands over 802.11g AM (125 kbps):\n");
  core::DownlinkScenario dl;
  dl.wifi_tx_power_dbm = 22.0;
  dl.chipset = wifi::ar9580();
  for (const double d_ft : {4.0, 10.0, 16.0}) {
    dl.distance_m = d_ft * 0.3048;
    mac::QueryFrame q;
    q.tag_address = 0x21;
    q.opcode = 0x05;  // "set gain" command
    const auto r = core::simulate_downlink(dl, q.to_bits());
    const auto parsed = mac::QueryFrame::from_bits(r.received);
    std::printf("  phone at %4.0f ft: rx %6.1f dBm, BER %.3f, command %s\n",
                d_ft, r.rx_power_dbm, r.ber,
                parsed.has_value() ? "ACCEPTED" : "rejected (checksum)");
  }

  // Multi-implant polling (paper §2.5): one phone polls three implants in
  // turn on one Wi-Fi channel; each reply is one ECoG frame at 11 Mbps.
  std::printf("\nround-robin polling of 3 implants:\n");
  sim::NetworkConfig fleet;
  fleet.topology.kind = sim::TopologyKind::kGrid;
  fleet.topology.num_tags = 3;
  fleet.topology.num_helpers = 1;
  fleet.topology.num_aps = 1;
  fleet.topology.extent_m = 0.5;  // implants ~7 in from the phone
  fleet.wifi_channels = {11};
  fleet.rate = wifi::DsssRate::k11Mbps;
  fleet.payload_bytes = 202;  // one ECoG frame
  fleet.rounds = 50;
  fleet.ble_tx_power_dbm = s.ble_tx_power_dbm;
  fleet.pathloss_exponent = s.pathloss_exponent;
  // The fleet budget assumes a 2 dBi monopole tag; the implant's loop has
  // less effective gain, which, like the tissue loss, counts on both legs.
  fleet.tag_medium_loss_db = tissue_db +
                             channel::monopole_2dbi().effective_gain_dbi() -
                             s.tag_antenna.effective_gain_dbi();
  fleet.seed = 7;
  const sim::NetworkStats stats = sim::NetworkCoordinator(fleet).run();
  std::printf("  %llu queries, %llu replies, aggregate goodput %.1f kbps\n",
              static_cast<unsigned long long>(stats.queries_sent),
              static_cast<unsigned long long>(stats.replies_received),
              stats.aggregate_goodput_kbps);
  return 0;
}
