#include "wifi/convolutional.h"

#include <array>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace itb::wifi {

namespace {

constexpr unsigned kConstraint = 7;
constexpr unsigned kStates = 1u << (kConstraint - 1);  // 64
constexpr unsigned kG0 = 0133;  // octal, includes the current bit (MSB side)
constexpr unsigned kG1 = 0171;

/// Output pair for (state, input). State bit 0 = most recent past input.
inline std::pair<std::uint8_t, std::uint8_t> branch_output(unsigned state,
                                                           unsigned input) {
  // Shift register contents, newest first: input, s0, s1, ... s5.
  const unsigned reg = (input << 6) | state;  // 7 bits, bit6 = current input
  // Generator taps are conventionally written MSB = current input.
  const unsigned a = __builtin_popcount(reg & kG0) & 1u;
  const unsigned b = __builtin_popcount(reg & kG1) & 1u;
  return {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)};
}

inline unsigned next_state(unsigned state, unsigned input) {
  return ((input << 6) | state) >> 1;  // drop oldest bit
}

}  // namespace

Bits convolutional_encode(const Bits& data, std::uint8_t initial_state) {
  Bits out;
  out.reserve(data.size() * 2);
  unsigned state = initial_state & (kStates - 1);
  for (std::uint8_t bit : data) {
    const auto [a, b] = branch_output(state, bit & 1u);
    out.push_back(a);
    out.push_back(b);
    state = next_state(state, bit & 1u);
  }
  return out;
}

Bits puncture(const Bits& coded, CodeRate rate) {
  if (rate == CodeRate::kRate1_2) return coded;
  Bits out;
  out.reserve(coded.size());
  if (rate == CodeRate::kRate2_3) {
    // Pattern over (A0 B0 A1 B1): keep A0 B0 A1, drop B1.
    for (std::size_t i = 0; i < coded.size(); ++i) {
      if (i % 4 == 3) continue;
      out.push_back(coded[i]);
    }
  } else {  // 3/4: over (A0 B0 A1 B1 A2 B2): keep A0 B0 A1 B2, drop B1 A2.
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const std::size_t m = i % 6;
      if (m == 3 || m == 4) continue;
      out.push_back(coded[i]);
    }
  }
  return out;
}

Bits depuncture_with_erasures(const Bits& punctured, CodeRate rate) {
  if (rate == CodeRate::kRate1_2) return punctured;
  // One puncturing period of the rate-1/2 stream; true marks a dropped bit.
  // 2/3: (A0 B0 A1 B1) drops B1; 3/4: (A0 B0 A1 B1 A2 B2) drops B1 A2.
  static constexpr bool kDrop23[] = {false, false, false, true};
  static constexpr bool kDrop34[] = {false, false, false, true, true, false};
  const std::span<const bool> drop =
      rate == CodeRate::kRate2_3 ? std::span<const bool>(kDrop23)
                                 : std::span<const bool>(kDrop34);
  Bits out;
  // Erasures are emitted as they are reached, so a period whose kept bits
  // all arrived is emitted in full, trailing erasures included; the stream
  // stops only at a kept position with no bit left.
  std::size_t idx = 0;
  for (std::size_t m = 0;; m = (m + 1) % drop.size()) {
    if (drop[m]) {
      out.push_back(2);
    } else if (idx < punctured.size()) {
      out.push_back(punctured[idx++]);
    } else {
      break;
    }
  }
  return out;
}

Bits viterbi_decode(const Bits& coded, std::size_t data_len,
                    std::uint8_t initial_state) {
  if (coded.size() < data_len * 2) {
    throw std::invalid_argument("viterbi_decode: " +
                                std::to_string(coded.size()) +
                                " coded bits cannot carry " +
                                std::to_string(data_len) + " data bits");
  }
  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;

  std::vector<unsigned> metric(kStates, kInf);
  metric[initial_state & (kStates - 1)] = 0;

  // survivor[t][state] = input bit leading into `state` at step t, plus the
  // predecessor state packed in the upper bits.
  std::vector<std::array<std::uint16_t, kStates>> survivor(data_len);

  std::vector<unsigned> next_metric(kStates);
  for (std::size_t t = 0; t < data_len; ++t) {
    const std::uint8_t ra = coded[2 * t];
    const std::uint8_t rb = coded[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] >= kInf) continue;
      for (unsigned in = 0; in < 2; ++in) {
        const auto [a, b] = branch_output(s, in);
        unsigned cost = 0;
        if (ra != 2) cost += (a != ra);
        if (rb != 2) cost += (b != rb);
        const unsigned ns = next_state(s, in);
        const unsigned cand = metric[s] + cost;
        if (cand < next_metric[ns]) {
          next_metric[ns] = cand;
          survivor[t][ns] = static_cast<std::uint16_t>((s << 1) | in);
        }
      }
    }
    metric.swap(next_metric);
  }

  // Traceback from the best final state.
  unsigned best = 0;
  unsigned best_metric = kInf;
  for (unsigned s = 0; s < kStates; ++s) {
    if (metric[s] < best_metric) {
      best_metric = metric[s];
      best = s;
    }
  }

  Bits out(data_len);
  unsigned state = best;
  for (std::size_t t = data_len; t-- > 0;) {
    const std::uint16_t sv = survivor[t][state];
    out[t] = sv & 1u;
    state = sv >> 1;
  }
  return out;
}

Bits decode_punctured(const Bits& punctured, CodeRate rate, std::size_t data_len) {
  const Bits padded = depuncture_with_erasures(punctured, rate);
  return viterbi_decode(padded, data_len);
}

}  // namespace itb::wifi
