// Single-sideband and double-sideband backscatter modulators (paper §2.3).
//
// The tag approximates e^{j 2 pi df t} with two square waves a quarter
// period apart (I and Q), each taking values ±1. At every instant the pair
// (I, Q) in {±1 ± j} selects one of the four impedance states, so the
// reflected wave is Gamma(t) ~ e^{j 2 pi df t}: a frequency shift with no
// mirror image. Multiplying by baseband DBPSK/DQPSK symbols permutes the
// same four states, which is why the whole 802.11b synthesis runs on a
// 4-way switch.
//
// The double-sideband baseline toggles a single square wave (two states),
// producing both +df and -df copies — the behaviour Fig. 6 and Fig. 12
// compare against.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "backscatter/impedance.h"
#include "dsp/types.h"

namespace itb::backscatter {

using itb::dsp::CVec;

struct SsbConfig {
  Real shift_hz = 35.75e6;      ///< +: upshift; -: downshift
  Real sample_rate_hz = 143e6;  ///< 4 x 35.75 MHz: sample-exact phases
  ImpedanceNetwork network = paper_network();
};

/// Time-aligned state sequence: which of the 4 impedance states the switch
/// selects at each output sample.
using StateSequence = std::vector<std::uint8_t>;

class SsbModulator {
 public:
  explicit SsbModulator(const SsbConfig& cfg = {});

  /// State sequence realizing e^{j 2 pi df t} for n samples (no data).
  StateSequence carrier_states(std::size_t n) const;

  /// State sequence for baseband QPSK symbols: `symbol_states[k]` in 0..3 is
  /// the data rotation (multiples of 90 deg) applied during sample k.
  /// Equivalent to multiplying the synthesized carrier by j^rotation.
  StateSequence modulate_states(const std::vector<std::uint8_t>& rotation_per_sample) const;

  /// Converts a state sequence to the reflected complex baseband, given unit
  /// incident tone amplitude: out[k] = Gamma(state[k]).
  CVec states_to_waveform(const StateSequence& states) const;

  /// Conversion loss (dB): power of the fundamental at +shift_hz relative to
  /// the incident tone power, measured from a pure carrier_states waveform.
  Real conversion_loss_db(std::size_t probe_samples = 16384) const;

 private:
  SsbConfig cfg_;
  /// Map from quadrant (I>0, Q>0 pattern) to network state index, fixed so
  /// state angles progress counter-clockwise.
  std::array<std::uint8_t, 4> quadrant_to_state_;
  /// Reflection coefficients of the four states, computed once: the network
  /// solve involves complex divides and must not run per waveform sample.
  std::array<Complex, 4> gammas_;
  /// Phase increment per sample as a 0.64 fixed-point fraction of a cycle;
  /// the accumulator's top two bits are the carrier quadrant directly.
  std::uint64_t phase_step_ = 0;
};

/// Double-sideband baseline: a single ±1 square wave at |shift_hz| toggling
/// between two states (maximal |Gamma| difference).
class DsbModulator {
 public:
  explicit DsbModulator(const SsbConfig& cfg = {});

  StateSequence carrier_states(std::size_t n) const;
  CVec states_to_waveform(const StateSequence& states) const;
  CVec modulate(const std::vector<std::uint8_t>& bpsk_flip_per_sample) const;

 private:
  SsbConfig cfg_;
  std::array<Complex, 4> gammas_;
  std::uint64_t phase_step_ = 0;
};

/// Expands chip-rate QPSK rotations (0..3) to per-sample rotations.
std::vector<std::uint8_t> expand_rotations(const std::vector<std::uint8_t>& per_chip,
                                           std::size_t samples_per_chip);

}  // namespace itb::backscatter
