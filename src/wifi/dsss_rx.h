// 802.11b receiver chain: chip-timing acquisition, SFD search, PLCP header
// decode, rate switch, despread/CCK decode, descramble, FCS check, RSSI.
//
// This models the commodity receiver (Intel Link 5300 in the paper) that the
// tag's synthesized packets must satisfy — every PER data point in Fig. 10/11
// comes from running waveforms through this class.
#pragma once

#include <optional>

#include "dsp/types.h"
#include "wifi/dsss_tx.h"
#include "wifi/mac_frame.h"

namespace itb::wifi {

struct DsssRxResult {
  Bytes psdu;
  PlcpHeader header;
  bool header_ok = false;
  bool fcs_ok = false;   ///< MAC-level CRC32 over the PSDU
  Real rssi_dbm = 0.0;   ///< measured from preamble sample power
  std::size_t sync_offset_samples = 0;
  /// Carrier offset estimated from the preamble (Hz at 11 Mchip/s),
  /// already corrected before decoding. 0 when the preamble is too short
  /// (< 4 symbols) or too weak to estimate.
  Real cfo_est_hz = 0.0;
};

/// Runs at one sample per chip (11 Msps): callers with oversampled
/// waveforms integrate-and-dump to chip rate first, as simulate_frame does.
class DsssReceiver {
 public:
  /// Attempts to find and decode one frame in the chip stream, which it
  /// takes by value because it derotates the chips in place (callers done
  /// with their buffer move it in). Returns nullopt when no preamble/SFD is
  /// found.
  std::optional<DsssRxResult> receive(CVec chips) const;
};

}  // namespace itb::wifi
