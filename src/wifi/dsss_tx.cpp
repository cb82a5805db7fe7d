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
  Bits sync_sfd;
  if (cfg_.short_tag_preamble) {
    // Tag mode: 32 scrambled ones + SFD. Enough for the receiver's
    // self-synchronizing descrambler (7 bits) plus AGC settling.
    sync_sfd.assign(32, 1);
  } else {
    sync_sfd.assign(kSyncBits, 1);
  }
  const Bits sfd = sfd_bits();
  sync_sfd.insert(sync_sfd.end(), sfd.begin(), sfd.end());

  PlcpHeader hdr;
  hdr.rate = cfg_.rate;
  hdr.service = PlcpHeader::service_for(cfg_.rate, psdu.size());
  hdr.length_us = length_field_us(cfg_.rate, psdu.size());
  const Bits header = build_plcp_header_bits(hdr);

  Bits low_rate_bits = sync_sfd;
  low_rate_bits.insert(low_rate_bits.end(), header.begin(), header.end());
  const Bits low_rate_scrambled = scrambler.scramble(low_rate_bits);

  DifferentialEncoder ref_enc(0.0);
  CVec symbols;
  symbols.reserve(low_rate_scrambled.size());
  for (std::uint8_t b : low_rate_scrambled) {
    symbols.push_back(ref_enc.encode_increment(dbpsk_phase_increment(b)));
  }
  CVec chips = spread(symbols);

  // --- PSDU at the data rate ----------------------------------------------
  const Bits psdu_bits = itb::phy::bytes_to_bits_lsb_first(psdu);
  const Bits psdu_scrambled = scrambler.scramble(psdu_bits);
  const Real header_end_phase = ref_enc.phase();

  switch (cfg_.rate) {
    case DsssRate::k1Mbps: {
      DifferentialEncoder enc(header_end_phase);
      CVec s;
      for (std::uint8_t b : psdu_scrambled) {
        s.push_back(enc.encode_increment(dbpsk_phase_increment(b)));
      }
      const CVec c = spread(s);
      chips.insert(chips.end(), c.begin(), c.end());
      break;
    }
    case DsssRate::k2Mbps: {
      assert(psdu_scrambled.size() % 2 == 0);
      DifferentialEncoder enc(header_end_phase);
      CVec s;
      for (std::size_t i = 0; i + 1 < psdu_scrambled.size(); i += 2) {
        s.push_back(enc.encode_increment(
            dqpsk_phase_increment(psdu_scrambled[i], psdu_scrambled[i + 1])));
      }
      const CVec c = spread(s);
      chips.insert(chips.end(), c.begin(), c.end());
      break;
    }
    case DsssRate::k5_5Mbps:
    case DsssRate::k11Mbps: {
      CckModulator cck(cfg_.rate);
      cck.reset(header_end_phase);
      const CVec c = cck.modulate(psdu_scrambled);
      chips.insert(chips.end(), c.begin(), c.end());
      break;
    }
  }

  DsssFrame out;
  out.psdu_bits = psdu_bits.size();
  out.duration_us = static_cast<double>(chips.size()) / 11.0;
  out.baseband = std::move(chips);
  return out;
}

}  // namespace itb::wifi
