// The paper's §2.5 "putting it all together": full bidirectional loop.
//
//   Wi-Fi device --- 802.11g AM query ---> tag (peak detector)
//   tag --- backscattered 802.11b reply --> Wi-Fi device (DSSS receiver)
//
// plus waveform-level integration of the application scenarios.
#include <gtest/gtest.h>

#include <cmath>

#include "backscatter/detector.h"
#include "backscatter/wifi_synth.h"
#include "ble/gfsk.h"
#include "ble/single_tone.h"
#include "channel/awgn.h"
#include "channel/link.h"
#include "core/downlink.h"
#include "core/interscatter.h"
#include "dsp/units.h"
#include "mac/query_reply.h"
#include "wifi/am_downlink.h"
#include "wifi/dsss_rx.h"
#include "wifi/mac_frame.h"

namespace itb {
namespace {

using dsp::CVec;
using dsp::Real;

/// Downconvert the tag's waveform and decode it with the DSSS receiver.
std::optional<wifi::DsssRxResult> receive_backscatter(
    const backscatter::WifiSynthResult& synth, Real shift_hz, Real fs) {
  CVec shifted = channel::apply_cfo(synth.waveform, -shift_hz, fs);
  CVec chips(shifted.size() / 13);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    dsp::Complex acc{0, 0};
    for (std::size_t k = 0; k < 13; ++k) acc += shifted[i * 13 + k];
    chips[i] = acc / 13.0;
  }
  const wifi::DsssReceiver rx;
  return rx.receive(chips);
}

TEST(FullLoop, QueryReplyRoundTrip) {
  // --- Downlink: the phone queries tag 0x42 --------------------------------
  mac::QueryFrame query;
  query.tag_address = 0x42;
  query.opcode = 0x03;  // "send telemetry"

  wifi::AmDownlinkConfig amcfg;
  amcfg.scrambler_seed = 0x51;
  wifi::AmDownlinkEncoder encoder(amcfg, 11);
  const wifi::AmFrame am = encoder.encode(query.to_bits());

  // Tag-side: peak detector decodes the query.
  backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  const backscatter::PeakDetector pd(pdc);
  const phy::Bits rx_bits = pd.decode_am(am.tx.baseband, 400,
                                         wifi::kSymbolSamples,
                                         mac::QueryFrame::kBits);
  const auto parsed_query = mac::QueryFrame::from_bits(rx_bits);
  ASSERT_TRUE(parsed_query.has_value());
  ASSERT_EQ(parsed_query->tag_address, 0x42);
  ASSERT_EQ(parsed_query->opcode, 0x03);

  // --- Uplink: the addressed tag replies on the next advertisement ---------
  wifi::MacFrame reply;
  reply.type = wifi::FrameType::kData;
  reply.body = {0x42, /*telemetry*/ 0xDE, 0xAD, 0xBE, 0xEF, 0x99};
  const phy::Bytes psdu = wifi::serialize(reply);

  backscatter::WifiSynthConfig synth_cfg;
  synth_cfg.rate = wifi::DsssRate::k2Mbps;
  const auto synth = backscatter::synthesize_wifi(psdu, synth_cfg);
  const auto rx = receive_backscatter(synth, synth_cfg.shift_hz,
                                      synth_cfg.sample_rate_hz);
  ASSERT_TRUE(rx.has_value());
  ASSERT_TRUE(rx->fcs_ok);
  const auto parsed_reply = wifi::parse(rx->psdu);
  ASSERT_TRUE(parsed_reply.has_value());
  EXPECT_EQ(parsed_reply->frame.body, reply.body);
}

TEST(FullLoop, UnaddressedTagStaysQuiet) {
  mac::QueryFrame query;
  query.tag_address = 0x42;
  wifi::AmDownlinkConfig amcfg;
  wifi::AmDownlinkEncoder encoder(amcfg, 12);
  const wifi::AmFrame am = encoder.encode(query.to_bits());

  backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  const backscatter::PeakDetector pd(pdc);
  const phy::Bits rx_bits = pd.decode_am(am.tx.baseband, 400,
                                         wifi::kSymbolSamples,
                                         mac::QueryFrame::kBits);
  const auto parsed = mac::QueryFrame::from_bits(rx_bits);
  ASSERT_TRUE(parsed.has_value());
  // A tag with a different address must not reply.
  const std::uint8_t my_address = 0x17;
  EXPECT_NE(parsed->tag_address, my_address);
}

TEST(FullLoop, BleDetectionToWifiReplyTimeline) {
  // The tag hears the BLE packet through its envelope detector, plans the
  // backscatter window, and the synthesized frame decodes — the complete
  // §2.2+§2.3 timeline against one advertisement.
  ble::SingleToneSpec spec;
  spec.channel_index = 38;
  const auto tone = ble::make_single_tone_packet(spec);

  // Incident BLE baseband at the tag (-25 dBm, strong enough to trigger).
  ble::GfskModulator gfsk;
  CVec incident = gfsk.modulate(tone.packet.air_bits);
  const Real amp = std::sqrt(dsp::dbm_to_watts(-25.0));
  for (auto& v : incident) v *= amp;

  backscatter::TagConfig tag_cfg;
  tag_cfg.wifi.rate = wifi::DsssRate::k2Mbps;
  const backscatter::InterscatterTag tag(tag_cfg);

  const auto detected_start = tag.detect_payload_start(incident, 8e6);
  ASSERT_TRUE(detected_start.has_value());
  EXPECT_NEAR(*detected_start,
              tone.packet.payload_start_us() + tag_cfg.guard_us, 10.0);

  const phy::Bytes psdu(30, 0x66);
  const auto plan = tag.plan(tone.packet, psdu);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->fits_window);
  EXPECT_LT(plan->backscatter_start_us + plan->synth.duration_us,
            static_cast<double>(tone.packet.crc_start_bit));

  const auto rx = receive_backscatter(plan->synth, tag_cfg.wifi.shift_hz,
                                      tag_cfg.wifi.sample_rate_hz);
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(rx->psdu, psdu);
}

TEST(FullLoop, ImplantScenarioWaveformLevel) {
  // Neural-implant geometry end-to-end at waveform level: tissue loss and
  // implant antenna applied through the budget, actual decode at 11 Mbps.
  core::UplinkScenario s;
  s.ble_tx_power_dbm = 20.0;
  s.ble_tag_distance_m = 3.0 * channel::kInchesToMeters;
  s.tag_rx_distance_m = 12.0 * channel::kInchesToMeters;
  s.rate = wifi::DsssRate::k11Mbps;
  s.tag_antenna = channel::neural_implant_loop();
  s.tag_medium_loss_db = 15.0;
  const core::InterscatterSystem sys(s);

  phy::Bytes ecog(77);
  for (std::size_t i = 0; i < ecog.size(); ++i) {
    ecog[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const auto r = sys.simulate_frame(ecog);
  ASSERT_TRUE(r.detected);
  EXPECT_TRUE(r.payload_ok);
}

TEST(FullLoop, EnvelopeDetectorRangeGate) {
  // §2.2: the detection threshold is tuned so only transmitters within
  // 8-10 ft trigger. Verify via the link budget: the incident power at
  // 8 ft clears the threshold and at 25 ft it does not.
  channel::LogDistanceModel pl;
  const Real at_8ft = channel::direct_rssi_dbm(
      0.0, 2.0, 2.0, pl, 8.0 * channel::kFeetToMeters);
  const Real at_25ft = channel::direct_rssi_dbm(
      0.0, 2.0, 2.0, pl, 25.0 * channel::kFeetToMeters);
  const backscatter::EnvelopeDetectorConfig det;
  EXPECT_GT(at_8ft, det.threshold_dbm);
  EXPECT_LT(at_25ft, det.threshold_dbm);
}

TEST(FullLoop, DownlinkThenUplinkThroughScenarios) {
  // Chain the scenario-level helpers exactly as an application would.
  core::DownlinkScenario down;
  down.distance_m = 2.0;
  down.chipset = wifi::ar5007g();
  const phy::Bits command = {1, 0, 1, 0, 1, 1, 0, 0};
  const auto d = core::simulate_downlink(down, command);
  ASSERT_EQ(d.received, command);

  core::UplinkScenario up;
  up.ble_tx_power_dbm = 10.0;
  up.tag_rx_distance_m = 1.5;
  const auto u = core::InterscatterSystem(up).simulate_frame(
      phy::Bytes{0xCA, 0xFE, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06});
  EXPECT_TRUE(u.payload_ok);
}

}  // namespace
}  // namespace itb
