// 802.11a/g OFDM symbol construction: subcarrier layout, pilot polarity,
// IFFT + cyclic prefix, preamble (STF/LTF) and SIGNAL field.
#pragma once

#include <array>
#include <optional>

#include "dsp/types.h"
#include "phycommon/bits.h"
#include "wifi/convolutional.h"
#include "wifi/qam.h"

namespace itb::wifi {

inline constexpr std::size_t kFftSize = 64;
inline constexpr std::size_t kCpLen = 16;
inline constexpr std::size_t kSymbolSamples = kFftSize + kCpLen;  // 4 us @20Msps
inline constexpr std::size_t kDataCarriers = 48;
inline constexpr std::size_t kPilotCarriers = 4;
inline constexpr double kOfdmSymbolUs = 4.0;

/// OFDM PHY rates (Mbps) and their parameters.
enum class OfdmRate { k6, k9, k12, k18, k24, k36, k48, k54 };

struct OfdmRateParams {
  OfdmRate rate;
  Modulation modulation;
  CodeRate code_rate;
  std::size_t n_bpsc;  ///< coded bits per subcarrier
  std::size_t n_cbps;  ///< coded bits per symbol
  std::size_t n_dbps;  ///< data bits per symbol
  unsigned signal_rate_bits;  ///< RATE field in the SIGNAL symbol
  double mbps;
};

const OfdmRateParams& ofdm_params(OfdmRate r);

/// Logical data-subcarrier index (0..47) -> FFT bin (-26..26 skipping pilots
/// and DC), returned as subcarrier index in [-26, 26].
int data_subcarrier_index(std::size_t logical);

/// Pilot subcarriers are at -21, -7, +7, +21 with base values 1,1,1,-1.
extern const std::array<int, kPilotCarriers> kPilotIndices;
extern const std::array<itb::dsp::Real, kPilotCarriers> kPilotBase;

/// Pilot polarity p_n for symbol n (cyclic 127-sequence; generated by the
/// frame-synchronous scrambler seeded with all ones).
itb::dsp::Real pilot_polarity(std::size_t symbol_index);

/// Builds one OFDM symbol (CP + 64 samples) from 48 complex data values.
/// `symbol_index` selects the pilot polarity; index 0 is the SIGNAL symbol.
itb::dsp::CVec build_ofdm_symbol(std::span<const itb::dsp::Complex> data48,
                                 std::size_t symbol_index);

/// Extracts the 48 data values from a received symbol: FFT, division of each
/// occupied bin by the channel estimate `chan` (kFftSize bins in FFT order;
/// bins with |chan| <= 1e-9 stay undivided), then common-phase correction
/// from the pilots. A unit channel divides exactly, leaving the FFT output.
itb::dsp::CVec extract_ofdm_symbol(std::span<const itb::dsp::Complex> samples,
                                   std::size_t symbol_index,
                                   std::span<const itb::dsp::Complex> chan);

/// 802.11 short training field (10 repetitions, 160 samples total).
itb::dsp::CVec short_training_field();

/// Long training field (2 x 64 + 32 CP = 160 samples).
itb::dsp::CVec long_training_field();

/// The frequency-domain LTF sequence on subcarriers -26..26 (0 at DC).
std::array<itb::dsp::Real, 53> ltf_sequence();

/// SIGNAL field symbol: rate bits + length, BPSK rate-1/2, not scrambled.
itb::dsp::CVec build_signal_symbol(OfdmRate rate, std::size_t psdu_bytes);

/// Parses a received SIGNAL symbol, equalized by `chan` as in
/// extract_ofdm_symbol. nullopt on a parity failure or an unknown RATE.
struct SignalField {
  OfdmRate rate;
  std::size_t length_bytes;
};
std::optional<SignalField> parse_signal_symbol(
    std::span<const itb::dsp::Complex> samples,
    std::span<const itb::dsp::Complex> chan);

}  // namespace itb::wifi
