#include "wifi/dsss_rx.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "dsp/correlate.h"
#include "dsp/mixer.h"
#include "dsp/units.h"
#include "obs/prof.h"
#include "phycommon/crc.h"
#include "phycommon/lfsr.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/dpsk.h"

namespace itb::wifi {

using itb::phy::DsssScrambler;

namespace {

/// Minimum normalized Barker correlation to declare chip lock (0..1).
constexpr Real kAcquisitionThreshold = 0.5;
/// Maximum bits of SYNC to scan for the SFD before giving up.
constexpr std::size_t kMaxSyncSearchBits = 400;
constexpr Real kChipRateHz = 11e6;

/// The Barker sequence as a complex correlation pattern (+/-1, zero phase).
CVec barker_pattern() {
  CVec p(kBarker.size());
  for (std::size_t k = 0; k < kBarker.size(); ++k) {
    p[k] = Complex{static_cast<Real>(kBarker[k]), 0.0};
  }
  return p;
}

}  // namespace

std::optional<DsssRxResult> DsssReceiver::receive(CVec chips) const {
  static const std::size_t kZone = obs::prof_zone("phy.dsss_rx");
  const obs::ProfZone prof(kZone);
  if (chips.size() < 2 * kBarker.size()) return std::nullopt;

  // --- 1. Chip-timing acquisition over the 11 possible alignments ----------
  // One sliding correlation over the probe region yields every
  // (offset, symbol) Barker metric at once, through the real-pattern SIMD
  // correlation kernel.
  const std::size_t probe_symbols = 16;
  const std::size_t probe_len =
      std::min(chips.size(), (probe_symbols + 1) * kBarker.size());
  static const CVec pattern = barker_pattern();
  const CVec corr = itb::dsp::cross_correlate(
      std::span<const Complex>(chips).first(probe_len), pattern);
  std::array<Real, kBarker.size()> offset_metric{};
  std::size_t best_off = 0;
  Real best_metric = -1.0;
  for (std::size_t off = 0; off < kBarker.size(); ++off) {
    Real m = 0.0;
    for (std::size_t s = 0; s < probe_symbols; ++s) {
      const std::size_t at = off + s * kBarker.size();
      if (at >= corr.size()) break;
      m += std::abs(corr[at]);
    }
    offset_metric[off] = m;
    if (m > best_metric) {
      best_metric = m;
      best_off = off;
    }
  }
  const Real per_symbol = best_metric / static_cast<Real>(probe_symbols);
  const Real input_rms = itb::dsp::rms(std::span<const Complex>(chips).first(
      std::min<std::size_t>(chips.size(), probe_symbols * kBarker.size())));
  if (input_rms <= 0.0 ||
      per_symbol < kAcquisitionThreshold * input_rms *
                       static_cast<Real>(kBarker.size())) {
    return std::nullopt;
  }

  // --- 1b. Timing refinement ----------------------------------------------
  // A dispersive channel smears correlation energy across adjacent chip
  // alignments; when a neighbour's metric is within 10% of the winner, break
  // the near-tie by despread-domain energy (the quantity the demodulator
  // actually consumes).
  const auto despread_energy = [&](std::size_t off) -> Real {
    const std::size_t n =
        std::min(probe_symbols, (chips.size() - off) / kBarker.size());
    if (n == 0) return -1.0;
    const CVec syms = despread(std::span<const Complex>(chips).subspan(
        off, n * kBarker.size()));
    Real acc = 0.0;
    for (const Complex& s : syms) acc += std::norm(s);
    return acc / static_cast<Real>(n);
  };
  Real best_energy = despread_energy(best_off);
  for (const std::size_t cand :
       {(best_off + kBarker.size() - 1) % kBarker.size(),
        (best_off + 1) % kBarker.size()}) {
    if (offset_metric[cand] < 0.9 * best_metric) continue;
    const Real e = despread_energy(cand);
    if (e > best_energy) {
      best_energy = e;
      best_off = cand;
    }
  }

  // --- 2. CFO estimation from the preamble --------------------------------
  // A +-40 ppm tag oscillator (~+-100 kHz at 2.4 GHz) rotates DQPSK by ~0.6
  // rad per symbol, most of the pi/4 decision margin, so the differential
  // demodulator alone cannot absorb it at realistic SNR. Every differential
  // product of neighbouring preamble symbols is (+-1) * e^{j theta}, theta
  // the per-symbol rotation: squaring removes the DBPSK sign so
  // arg(sum d^2)/2 estimates theta (unambiguous up to +-250 kHz, a quarter
  // turn per 1 us symbol), then the whole chip stream is derotated at
  // theta/11 per chip (the carrier phasor recurrence, DESIGN.md) and
  // decoding proceeds as if on-channel.
  Real cfo_est_hz = 0.0;
  const std::size_t est_symbols =
      std::min<std::size_t>(32, (chips.size() - best_off) / kBarker.size());
  if (est_symbols >= 4) {
    const CVec syms = despread(std::span<const Complex>(chips).subspan(
        best_off, est_symbols * kBarker.size()));
    Complex acc{0.0, 0.0};
    for (std::size_t k = 0; k + 1 < syms.size(); ++k) {
      const Complex d = syms[k + 1] * std::conj(syms[k]);
      acc += d * d;
    }
    if (std::abs(acc) > 1e-12) {
      const Real theta = 0.5 * std::arg(acc);
      const Real phi_chip = theta / static_cast<Real>(kBarker.size());
      itb::dsp::rotate_carrier(chips, 0.0, -phi_chip);
      cfo_est_hz = phi_chip * kChipRateHz / itb::dsp::kTwoPi;
    }
  }

  // --- 3. Despread the preamble region and find the SFD --------------------
  const std::size_t avail_symbols = (chips.size() - best_off) / kBarker.size();
  const std::size_t search_symbols =
      std::min(avail_symbols, kMaxSyncSearchBits);
  CVec pre_symbols = despread(std::span<const Complex>(chips).subspan(
      best_off, search_symbols * kBarker.size()));

  // DBPSK-decode with the first symbol as reference, then descramble.
  // The self-synchronizing descrambler flushes garbage within 7 bits.
  const itb::phy::Bits raw =
      dbpsk_decode(std::span<const Complex>(pre_symbols).subspan(1),
                   pre_symbols[0]);
  DsssScrambler desc(0x00);
  const itb::phy::Bits descrambled = desc.descramble(raw);

  const Bits sfd = sfd_bits();
  std::size_t sfd_end = 0;
  bool found = false;
  for (std::size_t i = 7; i + sfd.size() <= descrambled.size(); ++i) {
    if (std::equal(sfd.begin(), sfd.end(), descrambled.begin() + static_cast<std::ptrdiff_t>(i))) {
      sfd_end = i + sfd.size();
      found = true;
      break;
    }
  }
  if (!found) return std::nullopt;

  // --- 4. PLCP header (48 bits at 1 Mbps) -----------------------------------
  // Bit k of `descrambled` came from symbol k+1 of pre_symbols.
  const std::size_t header_first_symbol = sfd_end + 1;
  const std::size_t header_last_symbol = header_first_symbol + 48;
  if (header_last_symbol > search_symbols) return std::nullopt;
  if (sfd_end + 48 > descrambled.size()) return std::nullopt;

  const Bits header_bits(descrambled.begin() + static_cast<std::ptrdiff_t>(sfd_end),
                         descrambled.begin() + static_cast<std::ptrdiff_t>(sfd_end + 48));
  const auto hdr = parse_plcp_header_bits(header_bits);

  DsssRxResult out;
  out.sync_offset_samples = best_off;
  out.cfo_est_hz = cfo_est_hz;
  out.rssi_dbm = itb::dsp::watts_to_dbm(itb::dsp::mean_power(
      std::span<const Complex>(chips).subspan(best_off,
                                              probe_symbols * kBarker.size())));
  if (!hdr) {
    out.header_ok = false;
    return out;
  }
  out.header = *hdr;
  out.header_ok = true;

  // --- 5. PSDU at the payload rate ------------------------------------------
  // The self-synchronizing descrambler's state is the last 7 scrambled bits,
  // so feeding the raw preamble+header bits leaves it correctly positioned
  // for the PSDU.
  DsssScrambler psdu_desc(0x00);
  for (std::size_t i = 0; i < sfd_end + 48 && i < raw.size(); ++i) {
    psdu_desc.descramble_bit(raw[i]);
  }

  const std::size_t psdu_bytes = psdu_bytes_from_length(
      hdr->rate, hdr->length_us, (hdr->service & 0x80) != 0);
  const std::size_t psdu_bits_needed = psdu_bytes * 8;

  const std::size_t data_chip_start =
      best_off + header_last_symbol * kBarker.size();
  const Complex header_tail_symbol = pre_symbols[header_last_symbol - 1];

  Bits psdu_scrambled;
  switch (hdr->rate) {
    case DsssRate::k1Mbps:
    case DsssRate::k2Mbps: {
      const std::size_t bits_per_sym = hdr->rate == DsssRate::k1Mbps ? 1 : 2;
      const std::size_t need_symbols = psdu_bits_needed / bits_per_sym;
      if (data_chip_start + need_symbols * kBarker.size() > chips.size()) {
        return out;  // truncated capture: header ok, no payload
      }
      const CVec data_symbols = despread(std::span<const Complex>(chips).subspan(
          data_chip_start, need_symbols * kBarker.size()));
      psdu_scrambled =
          hdr->rate == DsssRate::k1Mbps
              ? dbpsk_decode(data_symbols, header_tail_symbol)
              : dqpsk_decode(data_symbols, header_tail_symbol);
      break;
    }
    case DsssRate::k5_5Mbps:
    case DsssRate::k11Mbps: {
      const std::size_t bits_per_sym = hdr->rate == DsssRate::k5_5Mbps ? 4 : 8;
      const std::size_t need_symbols = psdu_bits_needed / bits_per_sym;
      if (data_chip_start + need_symbols * kCckChipsPerSymbol > chips.size()) {
        return out;
      }
      psdu_scrambled = CckDemodulator(hdr->rate).demodulate(
          std::span<const Complex>(chips).subspan(
              data_chip_start, need_symbols * kCckChipsPerSymbol),
          header_tail_symbol);
      break;
    }
  }

  const Bits psdu_bits = psdu_desc.descramble(psdu_scrambled);
  if (psdu_bits.size() % 8 != 0) return out;
  out.psdu = itb::phy::bits_to_bytes_lsb_first(psdu_bits);

  if (out.psdu.size() >= 4) {
    const Bytes body(out.psdu.begin(), out.psdu.end() - 4);
    const std::uint32_t expect = itb::phy::crc32_ieee(body);
    std::uint32_t got = 0;
    for (int i = 0; i < 4; ++i) {
      got |= static_cast<std::uint32_t>(out.psdu[out.psdu.size() - 4 + i]) << (8 * i);
    }
    out.fcs_ok = expect == got;
  }
  return out;
}

}  // namespace itb::wifi
