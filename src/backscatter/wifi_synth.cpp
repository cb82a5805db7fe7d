#include "backscatter/wifi_synth.h"

#include <cassert>
#include <cmath>

#include "wifi/dpsk.h"

namespace itb::backscatter {

std::uint8_t chip_to_rotation(itb::dsp::Complex chip) {
  // DSSS/CCK chips sit on the axes {1, j, -1, -j}; quantize to the nearest
  // axis. The tag then emits e^{j pi/4} * j^rotation — a constant pi/4
  // rotation of the whole constellation that differential receivers ignore
  // (paper §2.3.2). Rounding to the nearest axis (rather than the nearest
  // diagonal) keeps the mapping stable under floating-point jitter.
  return static_cast<std::uint8_t>(itb::wifi::nearest_quarter(chip));
}

namespace {

std::size_t count_transitions(const StateSequence& s) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < s.size(); ++i) n += (s[i] != s[i - 1]);
  return n;
}

itb::wifi::DsssFrame make_frame(const itb::phy::Bytes& psdu,
                                const WifiSynthConfig& cfg) {
  itb::wifi::DsssTxConfig txcfg;
  txcfg.rate = cfg.rate;
  txcfg.short_tag_preamble = cfg.short_tag_preamble;
  const itb::wifi::DsssTransmitter tx(txcfg);
  return tx.modulate(psdu);
}

}  // namespace

WifiSynthResult synthesize_wifi(const itb::phy::Bytes& psdu,
                                const WifiSynthConfig& cfg) {
  WifiSynthResult out;
  out.frame = make_frame(psdu, cfg);

  // Per-chip rotations; the tag's DQPSK/CCK chips all sit on the QPSK grid.
  std::vector<std::uint8_t> per_chip(out.frame.baseband.size());
  for (std::size_t i = 0; i < per_chip.size(); ++i) {
    per_chip[i] = chip_to_rotation(out.frame.baseband[i]);
  }

  const Real spc_real = cfg.sample_rate_hz / 11e6;
  const auto spc = static_cast<std::size_t>(std::lround(spc_real));
  assert(std::abs(spc_real - static_cast<Real>(spc)) < 1e-6 &&
         "tag sample rate must be an integer multiple of 11 Mchip/s");

  const std::vector<std::uint8_t> per_sample = expand_rotations(per_chip, spc);

  SsbConfig scfg;
  scfg.shift_hz = cfg.shift_hz;
  scfg.sample_rate_hz = cfg.sample_rate_hz;
  scfg.network = cfg.network;
  const SsbModulator mod(scfg);

  out.states = mod.modulate_states(per_sample);
  out.waveform = mod.states_to_waveform(out.states);
  out.duration_us = static_cast<double>(out.frame.baseband.size()) / 11.0;
  out.state_transitions = count_transitions(out.states);
  return out;
}

WifiSynthResult synthesize_wifi_dsb(const itb::phy::Bytes& psdu,
                                    const WifiSynthConfig& cfg) {
  WifiSynthResult out;
  out.frame = make_frame(psdu, cfg);

  // DSB can only realize BPSK cleanly: each chip takes the nearer of the
  // two points +-e^{j pi/4} (the SSB tag's constant pi/4 rotation), so 1
  // and j map to 0, -1 and -j to a flip.
  std::vector<std::uint8_t> per_chip(out.frame.baseband.size());
  for (std::size_t i = 0; i < per_chip.size(); ++i) {
    const itb::dsp::Complex c = out.frame.baseband[i];
    per_chip[i] = c.real() + c.imag() < 0.0 ? 1 : 0;
  }

  const auto spc =
      static_cast<std::size_t>(std::lround(cfg.sample_rate_hz / 11e6));
  const std::vector<std::uint8_t> per_sample = expand_rotations(per_chip, spc);

  SsbConfig scfg;
  scfg.shift_hz = cfg.shift_hz;
  scfg.sample_rate_hz = cfg.sample_rate_hz;
  scfg.network = cfg.network;
  const DsbModulator mod(scfg);

  out.waveform = mod.modulate(per_sample);
  out.duration_us = static_cast<double>(out.frame.baseband.size()) / 11.0;
  // State sequence for DSB is implicit; approximate transitions by edges.
  out.state_transitions = 2 * static_cast<std::size_t>(
      out.duration_us * std::abs(cfg.shift_hz) / 1e6);
  return out;
}

}  // namespace itb::backscatter
