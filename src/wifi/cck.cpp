#include "wifi/cck.h"

#include <cassert>

#include "wifi/dpsk.h"

namespace itb::wifi {

std::array<Complex, kCckChipsPerSymbol> cck_codeword(unsigned q1, unsigned q2,
                                                     unsigned q3, unsigned q4) {
  // The two negated chips carry an extra half turn.
  return {
      quarter_phasor(q1 + q2 + q3 + q4),
      quarter_phasor(q1 + q3 + q4),
      quarter_phasor(q1 + q2 + q4),
      quarter_phasor(q1 + q4 + 2),
      quarter_phasor(q1 + q2 + q3),
      quarter_phasor(q1 + q3),
      quarter_phasor(q1 + q2 + 2),
      quarter_phasor(q1),
  };
}

unsigned cck_qpsk_phase(std::uint8_t d0, std::uint8_t d1) {
  return static_cast<unsigned>((d0 & 1u) << 1 | (d1 & 1u));
}

CckModulator::CckModulator(DsssRate rate) : rate_(rate) {
  assert(rate == DsssRate::k5_5Mbps || rate == DsssRate::k11Mbps);
  bits_per_symbol_ = rate == DsssRate::k5_5Mbps ? 4 : 8;
}

void CckModulator::reset(unsigned initial_quadrant) {
  phase_ref_ = initial_quadrant & 3u;
  symbol_index_ = 0;
}

std::array<unsigned, 3> CckModulator::data_phases(
    std::span<const std::uint8_t> data) const {
  if (rate_ == DsssRate::k11Mbps) {
    assert(data.size() == 6);
    return {cck_qpsk_phase(data[0], data[1]), cck_qpsk_phase(data[2], data[3]),
            cck_qpsk_phase(data[4], data[5])};
  }
  // 5.5 Mbps (16.4.6.5): p2 = d2*pi + pi/2, p3 = 0, p4 = d3*pi.
  assert(data.size() == 2);
  return {2u * (data[0] & 1u) + 1u, 0u, 2u * (data[1] & 1u)};
}

void CckModulator::modulate(const Bits& bits, CVec& out) {
  assert(bits.size() % bits_per_symbol_ == 0);
  for (std::size_t i = 0; i < bits.size(); i += bits_per_symbol_) {
    // p1: DQPSK on (d0, d1) with an extra pi on odd-numbered symbols.
    const unsigned odd = symbol_index_ % 2 == 1 ? 2u : 0u;
    phase_ref_ =
        (phase_ref_ + dqpsk_phase_increment(bits[i], bits[i + 1]) + odd) & 3u;

    const std::span<const std::uint8_t> data(&bits[i + 2], bits_per_symbol_ - 2);
    const std::array<unsigned, 3> p = data_phases(data);
    const auto cw = cck_codeword(phase_ref_, p[0], p[1], p[2]);
    out.insert(out.end(), cw.begin(), cw.end());
    ++symbol_index_;
  }
}

CckDemodulator::CckDemodulator(DsssRate rate) : rate_(rate) {
  assert(rate == DsssRate::k5_5Mbps || rate == DsssRate::k11Mbps);
}

namespace {

/// z * e^{-j q pi/2}: multiplying by a conjugated quarter-turn phase only
/// swaps and negates parts, so it is exact.
Complex unturn(Complex z, unsigned q) {
  switch (q & 3u) {
    case 0:
      return z;
    case 1:
      return {z.imag(), -z.real()};
    case 2:
      return -z;
    default:
      return {-z.imag(), z.real()};
  }
}

/// The four sums that depend on p2 alone, for a = e^{-j q2 pi/2}:
/// (a*r0 + r1, a*r2 - r3, a*r4 + r5, r7 - a*r6).
std::array<Complex, 4> p2_sums(std::span<const Complex, kCckChipsPerSymbol> r,
                               unsigned q2) {
  return {unturn(r[0], q2) + r[1], unturn(r[2], q2) - r[3],
          unturn(r[4], q2) + r[5], r[7] - unturn(r[6], q2)};
}

}  // namespace

std::size_t CckDemodulator::correlate(
    std::span<const Complex, kCckChipsPerSymbol> r,
    std::array<Complex, kMaxCandidates>& out) const {
  // With a = e^{-j p2}, b = e^{-j p3}, c = e^{-j p4} the correlation with
  // the base codeword factors as
  //   c*(b*(a*r0 + r1) + (a*r2 - r3)) + (b*(a*r4 + r5) + (r7 - a*r6)),
  // and every factor is a quarter turn, so the 64 candidates cost
  // 4*4 + 16*2 + 64 = 112 complex adds.
  if (rate_ == DsssRate::k11Mbps) {
    // Dibit (d0, d1) is the quarter turn 2*d0 + d1 (cck_qpsk_phase), and
    // d0 is the lower bit of its pair in the candidate index.
    const auto bits_of = [](unsigned q) { return (q >> 1) | (q & 1u) << 1; };
    for (unsigned q2 = 0; q2 < 4; ++q2) {
      const std::array<Complex, 4> u = p2_sums(r, q2);
      for (unsigned q3 = 0; q3 < 4; ++q3) {
        const Complex v0 = unturn(u[0], q3) + u[1];
        const Complex v1 = unturn(u[2], q3) + u[3];
        for (unsigned q4 = 0; q4 < 4; ++q4) {
          out[bits_of(q2) | bits_of(q3) << 2 | bits_of(q4) << 4] =
              unturn(v0, q4) + v1;
        }
      }
    }
    return 64;
  }
  // 5.5 Mbps (16.4.6.5): p2 = d0*pi + pi/2, p3 = 0, p4 = d1*pi.
  for (unsigned d0 = 0; d0 < 2; ++d0) {
    const std::array<Complex, 4> u = p2_sums(r, 2 * d0 + 1);
    for (unsigned d1 = 0; d1 < 2; ++d1) {
      out[d0 | d1 << 1] = unturn(u[0] + u[1], 2 * d1) + (u[2] + u[3]);
    }
  }
  return 4;
}

Bits CckDemodulator::demodulate(std::span<const Complex> chips,
                                Complex reference) const {
  assert(chips.size() % kCckChipsPerSymbol == 0);
  const std::size_t symbols = chips.size() / kCckChipsPerSymbol;
  const std::size_t data_bits = rate_ == DsssRate::k11Mbps ? 6 : 2;
  Bits out;
  out.reserve(symbols * (2 + data_bits));
  Complex prev = reference;
  std::array<Complex, kMaxCandidates> acc;
  for (std::size_t s = 0; s < symbols; ++s) {
    // The strongest base-codeword correlation gives the data phases, and
    // its complex value carries e^{j p1}.
    const std::size_t n = correlate(
        chips.subspan(s * kCckChipsPerSymbol).first<kCckChipsPerSymbol>(), acc);
    std::size_t best = 0;
    Real best_mag = -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      const Real mag = std::norm(acc[v]);
      if (mag > best_mag) {
        best_mag = mag;
        best = v;
      }
    }

    // p1 is DQPSK against the previous symbol's correlation, with an extra
    // pi on odd symbols: negate the differential product to remove it.
    Complex w = differential_product(acc[best], prev);
    if (s % 2 == 1) w = -w;
    const auto dibit = dqpsk_dibit(nearest_quarter(w));
    out.push_back(dibit[0]);
    out.push_back(dibit[1]);
    for (std::size_t b = 0; b < data_bits; ++b) {
      out.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
    }
    prev = acc[best];
  }
  return out;
}

}  // namespace itb::wifi
