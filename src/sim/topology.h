// Pluggable node-placement generators for fleets of implanted tags, BLE
// helpers, and Wi-Fi access points.
//
// Three generators cover the evaluation scenarios:
//   kGrid        — deterministic lattice (regression-friendly, no RNG);
//   kUniformDisk — tags uniform in a disk (classic dense-deployment model);
//   kHospitalWard— rooms along a double-loaded corridor, beds per room,
//                  tags scattered around beds, one helper per room, APs
//                  spaced along the corridor (the paper's implant use case
//                  scaled to a ward).
// All randomized placement draws from a single Xoshiro256 seeded by
// TopologyConfig::seed, so a topology is a pure function of its config.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/types.h"

namespace itb::sim {

using itb::dsp::Real;

struct Vec2 {
  Real x = 0.0;
  Real y = 0.0;
};

Real distance_m(const Vec2& a, const Vec2& b);

/// Index of the node in `nodes` closest to `p` (lowest index wins ties).
/// Throws std::invalid_argument on an empty node set. O(nodes) scan — the
/// reference semantics; bulk callers use sim::SpatialHashGrid, which is
/// bit-identical to this scan including tie-breaks.
std::size_t nearest_index(const std::vector<Vec2>& nodes, const Vec2& p);

enum class TopologyKind {
  kGrid,
  kUniformDisk,
  kHospitalWard,
};

// --- hospital-ward geometry ------------------------------------------------
inline constexpr std::size_t kBedsPerRoom = 4;
/// Spacing of rooms along the corridor, meters.
inline constexpr Real kRoomPitchM = 6.0;
/// Rooms sit this far off the corridor axis, meters.
inline constexpr Real kRoomDepthM = 5.0;
/// Tag scatter radius around its bed, meters.
inline constexpr Real kBedScatterM = 0.5;

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kGrid;
  std::size_t num_tags = 16;
  std::size_t num_helpers = 4;  ///< BLE advertisers driving the tags
  std::size_t num_aps = 3;      ///< Wi-Fi access points receiving replies
  /// Grid side length / disk radius / corridor length, meters.
  Real extent_m = 20.0;
  std::uint64_t seed = 1;
};

struct Placement {
  std::vector<Vec2> tags;
  std::vector<Vec2> helpers;
  std::vector<Vec2> aps;
};

/// Generates the placement for a config. Pure function of cfg (same config
/// -> bit-identical placement). num_tags/num_helpers/num_aps of zero are
/// allowed and produce empty vectors.
Placement generate_topology(const TopologyConfig& cfg);

}  // namespace itb::sim
