// Slotted 802.11 DCF simulator used for the coexistence experiment (Fig. 12):
// one saturated AP->station flow (the iperf proxy) sharing channel 6 with
// interfering backscatter packets.
//
// With single-sideband backscatter the tag's packets land on channel 11 and
// never touch the victim flow; with double-sideband the mirror copy lands on
// channel 6 and acts as a hidden-node interferer (the tag cannot carrier
// sense, so its transmissions start regardless of the flow's activity and
// corrupt any overlapping frame).
#pragma once

#include <cstdint>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace itb::mac {

using itb::dsp::Real;

/// The backscatter interferer. Its frame is a 96 us short sync/header plus
/// 32 B at 2 Mbps (224 us on air), and an overlapping burst corrupts the
/// victim frame with a fixed capture probability (dcf.cpp).
struct InterfererConfig {
  Real packets_per_second = 0.0;
  bool on_victim_channel = false;   ///< true for DSB's mirror copy
};

struct DcfResult {
  Real throughput_mbps = 0.0;   ///< iperf-style goodput
  Real collision_rate = 0.0;    ///< fraction of victim frames corrupted
  Real airtime_busy_fraction = 0.0;
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_lost = 0;
};

/// Simulates `duration_s` seconds of the saturated victim flow (1500 B
/// frames starting at 36 Mbps, with rate adaptation) next to the given
/// interferer, returning goodput and loss statistics.
DcfResult simulate_dcf(const InterfererConfig& interferer, Real duration_s,
                       std::uint64_t seed);

}  // namespace itb::mac
