#include "wifi/dsss_tx.h"

#include <cassert>

#include "obs/prof.h"
#include "phycommon/lfsr.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/dpsk.h"

namespace itb::wifi {

using itb::phy::DsssScrambler;

DsssTransmitter::DsssTransmitter(const DsssTxConfig& cfg) : cfg_(cfg) {}

DsssFrame DsssTransmitter::modulate(const Bytes& psdu) const {
  static const std::size_t kZone = obs::prof_zone("phy.dsss_tx");
  const obs::ProfZone prof(kZone);
  DsssScrambler scrambler(kLongPreambleScramblerSeed);

  // --- PLCP preamble (SYNC + SFD) and header, all at 1 Mbps DBPSK ---------
  PlcpHeader hdr;
  hdr.rate = cfg_.rate;
  hdr.service = PlcpHeader::service_for(cfg_.rate, psdu.size());
  hdr.length_us = length_field_us(cfg_.rate, psdu.size());
  const Bits header = build_plcp_header_bits(hdr);
  const Bits sfd = sfd_bits();
  // Tag mode: 32 scrambled ones + SFD. Enough for the receiver's
  // self-synchronizing descrambler (7 bits) plus AGC settling.
  const std::size_t sync_bits = cfg_.short_tag_preamble ? 32 : kSyncBits;

  Bits low_rate_bits;
  low_rate_bits.reserve(sync_bits + sfd.size() + header.size());
  low_rate_bits.assign(sync_bits, 1);
  low_rate_bits.insert(low_rate_bits.end(), sfd.begin(), sfd.end());
  low_rate_bits.insert(low_rate_bits.end(), header.begin(), header.end());
  const Bits low_rate_scrambled = scrambler.scramble(low_rate_bits);

  // --- PSDU at the data rate ----------------------------------------------
  const Bits psdu_bits = itb::phy::bytes_to_bits_lsb_first(psdu);
  const Bits psdu_scrambled = scrambler.scramble(psdu_bits);

  // Phases are quadrants, so every chip is an exact 1, j, -1 or -j and no
  // trigonometry runs. The chips go into one buffer of the frame's size.
  // 11 Mchip/s over the bit rate is every rate's chips per data bit
  // (exact in double: 11, 5.5, 2 and 1).
  const std::size_t total_chips =
      low_rate_scrambled.size() * kBarker.size() +
      static_cast<std::size_t>(static_cast<double>(psdu_scrambled.size()) *
                               11.0 / rate_mbps(cfg_.rate));
  CVec chips;
  chips.reserve(total_chips);

  DifferentialEncoder enc;
  for (std::uint8_t b : low_rate_scrambled) {
    spread_symbol(enc.encode_increment(dbpsk_phase_increment(b)), chips);
  }

  switch (cfg_.rate) {
    case DsssRate::k1Mbps:
      for (std::uint8_t b : psdu_scrambled) {
        spread_symbol(enc.encode_increment(dbpsk_phase_increment(b)), chips);
      }
      break;
    case DsssRate::k2Mbps:
      assert(psdu_scrambled.size() % 2 == 0);
      for (std::size_t i = 0; i + 1 < psdu_scrambled.size(); i += 2) {
        spread_symbol(enc.encode_increment(dqpsk_phase_increment(
                          psdu_scrambled[i], psdu_scrambled[i + 1])),
                      chips);
      }
      break;
    case DsssRate::k5_5Mbps:
    case DsssRate::k11Mbps: {
      CckModulator cck(cfg_.rate);
      cck.reset(enc.quadrant());
      cck.modulate(psdu_scrambled, chips);
      break;
    }
  }
  assert(chips.size() == total_chips);

  DsssFrame out;
  out.psdu_bits = psdu_bits.size();
  out.duration_us = static_cast<double>(chips.size()) / 11.0;
  out.baseband = std::move(chips);
  return out;
}

}  // namespace itb::wifi
