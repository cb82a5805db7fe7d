// 802.11b transmitter: PSDU -> scrambled bits -> Barker/CCK chips -> complex
// baseband. This is both the reference Wi-Fi source for the coexistence
// experiments and the symbol source the interscatter tag maps onto its
// impedance states.
#pragma once

#include "dsp/types.h"
#include "phycommon/bits.h"
#include "wifi/plcp.h"
#include "wifi/rates.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

struct DsssTxConfig {
  DsssRate rate = DsssRate::k2Mbps;
  /// Tag-mode framing (paper §2.3.3): replaces the 144 us long preamble with
  /// a short 48-bit sync so the whole frame fits in a BLE payload window.
  bool short_tag_preamble = false;
};

/// Result of modulating one frame.
struct DsssFrame {
  CVec baseband;        ///< the chip stream, one sample per chip (11 Msps)
  std::size_t psdu_bits = 0;
  double duration_us = 0.0;
};

class DsssTransmitter {
 public:
  explicit DsssTransmitter(const DsssTxConfig& cfg = {});

  /// Modulates a PSDU into a frame (PLCP preamble + header + data).
  DsssFrame modulate(const Bytes& psdu) const;

 private:
  DsssTxConfig cfg_;
};

}  // namespace itb::wifi
