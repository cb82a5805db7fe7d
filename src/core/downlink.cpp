#include "core/downlink.h"

#include <cmath>

#include "channel/awgn.h"
#include "dsp/units.h"
#include "phycommon/bits.h"

namespace itb::core {

DownlinkResult simulate_downlink(const DownlinkScenario& scenario,
                                 const itb::phy::Bits& message_bits) {
  DownlinkResult out;
  out.sent = message_bits;

  // The helper device's chipset determines the seed the encoder must
  // predict. Predictable policies (increment / fixed) let the encoder match
  // the seed exactly; the spec-faithful random policy means the actual
  // transmission scrambles with a seed the encoder could not know (§4.4).
  itb::wifi::SeedSequencer seq(scenario.chipset, scenario.seed);
  const std::uint8_t predicted = seq.next();
  const std::uint8_t actual =
      scenario.chipset.policy == itb::wifi::SeedPolicy::kRandom ? seq.next()
                                                                : predicted;

  itb::wifi::AmDownlinkConfig amcfg;
  amcfg.rate = scenario.rate;
  amcfg.scrambler_seed = predicted;
  itb::wifi::AmDownlinkEncoder encoder(amcfg, scenario.seed);
  itb::wifi::AmFrame frame = encoder.encode(message_bits);

  if (actual != predicted) {
    // Rebuild the waveform as the chipset actually scrambles it.
    itb::wifi::OfdmTxConfig txcfg;
    txcfg.rate = scenario.rate;
    txcfg.scrambler_seed = actual;
    const itb::wifi::OfdmTransmitter tx(txcfg);
    frame.tx = tx.transmit_data_bits(frame.data_field_bits);
  }

  // Path loss to the tag.
  itb::channel::LogDistanceModel pl;
  pl.exponent = scenario.pathloss_exponent;
  out.rx_power_dbm = scenario.wifi_tx_power_dbm + 2.0 + 0.0 -
                     pl.pathloss_db(scenario.distance_m);
  out.above_sensitivity = out.rx_power_dbm >= scenario.detector_sensitivity_dbm;

  // Scale waveform to the received power and add noise (20 MHz bandwidth).
  itb::dsp::CVec rx = frame.tx.baseband;
  const Real cur = itb::dsp::mean_power(rx);
  if (cur > 0.0) {
    const Real g = std::sqrt(itb::dsp::dbm_to_watts(out.rx_power_dbm) / cur);
    for (auto& v : rx) v *= g;
  }
  // Domain-separated substream ("dnlk"): the raw xor this replaces reused
  // the golden-ratio increment that SplitMix64 itself adds, so uplink and
  // downlink noise draws were one splitmix step from colliding.
  itb::dsp::Xoshiro256 rng(
      itb::dsp::splitmix64(scenario.seed ^ 0x646E6C6BULL));
  const Real noise_dbm = itb::channel::thermal_noise_dbm(20e6, 7.0);
  itb::channel::add_noise_variance_inplace(
      rx, itb::dsp::dbm_to_watts(noise_dbm), rng);

  // Tag-side peak detection.
  itb::backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = scenario.detector_sensitivity_dbm;
  const itb::backscatter::PeakDetector pd(pdc);
  out.received = pd.decode_am(rx, /*data_start=*/400,
                              itb::wifi::kSymbolSamples, message_bits.size());

  if (!out.received.empty()) {
    const std::size_t n = std::min(out.received.size(), message_bits.size());
    std::size_t errors = message_bits.size() - n;  // missing bits count as errors
    for (std::size_t i = 0; i < n; ++i) {
      errors += (out.received[i] != message_bits[i]);
    }
    out.ber = static_cast<Real>(errors) / static_cast<Real>(message_bits.size());
  }
  return out;
}

}  // namespace itb::core
