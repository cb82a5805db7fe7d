#include "sim/topology.h"

#include <cmath>
#include <stdexcept>

#include "dsp/rng.h"

namespace itb::sim {

Real distance_m(const Vec2& a, const Vec2& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::size_t nearest_index(const std::vector<Vec2>& nodes, const Vec2& p) {
  if (nodes.empty()) {
    throw std::invalid_argument("nearest_index: empty node set");
  }
  std::size_t best = 0;
  Real best_d = distance_m(nodes[0], p);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const Real d = distance_m(nodes[i], p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

namespace {

/// n points on a ceil(sqrt(n))-wide lattice filling [0, extent]^2, row-major.
std::vector<Vec2> lattice(std::size_t n, Real extent) {
  std::vector<Vec2> out;
  out.reserve(n);
  if (n == 0) return out;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const Real pitch = extent / static_cast<Real>(side);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i / side;
    const std::size_t col = i % side;
    out.push_back({(static_cast<Real>(col) + 0.5) * pitch,
                   (static_cast<Real>(row) + 0.5) * pitch});
  }
  return out;
}

/// n points evenly spaced along the horizontal mid-line of [0, extent]^2.
std::vector<Vec2> midline(std::size_t n, Real extent, Real y) {
  std::vector<Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({(static_cast<Real>(i) + 0.5) * extent /
                       static_cast<Real>(n == 0 ? 1 : n),
                   y});
  }
  return out;
}

std::vector<Vec2> uniform_disk(std::size_t n, Real radius,
                               itb::dsp::Xoshiro256& rng) {
  std::vector<Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // sqrt(u) radial density makes the area density uniform.
    const Real r = radius * std::sqrt(rng.uniform());
    const Real theta = rng.uniform(0.0, itb::dsp::kTwoPi);
    out.push_back({radius + r * std::cos(theta),
                   radius + r * std::sin(theta)});
  }
  return out;
}

Placement hospital_ward(const TopologyConfig& cfg,
                        itb::dsp::Xoshiro256& rng) {
  Placement out;
  const std::size_t rooms = (cfg.num_tags + kBedsPerRoom - 1) / kBedsPerRoom;
  const Real corridor_y = kRoomDepthM;  // corridor axis

  // Every room uses the same bed lattice; compute it once, not per room.
  const auto bed_grid = lattice(kBedsPerRoom, kRoomPitchM * 0.8);
  // Rooms alternate sides of the corridor: room r sits at x = pitch*(r/2),
  // y = 0 (south) or 2*room_depth (north).
  for (std::size_t r = 0; r < rooms && out.tags.size() < cfg.num_tags; ++r) {
    const Real cx = kRoomPitchM * (static_cast<Real>(r / 2) + 0.5);
    const Real cy = (r % 2 == 0) ? corridor_y - kRoomDepthM * 0.6
                                 : corridor_y + kRoomDepthM * 0.6;
    // One BLE helper per room, wall-mounted at the room centre.
    out.helpers.push_back({cx, cy});
    // Beds on the shared lattice; one tag per bed, scattered.
    for (std::size_t b = 0;
         b < kBedsPerRoom && out.tags.size() < cfg.num_tags; ++b) {
      const Real jx = rng.uniform(-kBedScatterM, kBedScatterM);
      const Real jy = rng.uniform(-kBedScatterM, kBedScatterM);
      out.tags.push_back({cx - kRoomPitchM * 0.4 + bed_grid[b].x + jx,
                          cy - kRoomPitchM * 0.4 + bed_grid[b].y + jy});
    }
  }

  // APs down the corridor covering the occupied span.
  const Real span = kRoomPitchM * (static_cast<Real>((rooms + 1) / 2) + 0.5);
  out.aps = midline(cfg.num_aps, span, corridor_y);
  // num_helpers is advisory for the ward: the ward places one per room, but
  // honours an explicit smaller count by trimming (keeps coverage sparse).
  if (cfg.num_helpers != 0 && out.helpers.size() > cfg.num_helpers) {
    // Centered strided selection: helper i covers the middle of the i-th of
    // num_helpers equal room spans. (The old `i * total / num_helpers`
    // always kept room 0 and biased coverage toward the corridor start.)
    std::vector<Vec2> kept;
    kept.reserve(cfg.num_helpers);
    const std::size_t total = out.helpers.size();
    for (std::size_t i = 0; i < cfg.num_helpers; ++i) {
      kept.push_back(out.helpers[(2 * i + 1) * total / (2 * cfg.num_helpers)]);
    }
    out.helpers = std::move(kept);
  }
  return out;
}

}  // namespace

Placement generate_topology(const TopologyConfig& cfg) {
  // Domain-separated substream ("topo"): placement draws must not alias the
  // per-entity entity_stream() substreams that reuse the same sim seed.
  itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(cfg.seed ^ 0x746F706FULL));
  Placement out;
  switch (cfg.kind) {
    case TopologyKind::kGrid:
      out.tags = lattice(cfg.num_tags, cfg.extent_m);
      out.helpers = lattice(cfg.num_helpers, cfg.extent_m);
      out.aps = midline(cfg.num_aps, cfg.extent_m, cfg.extent_m * 0.5);
      break;
    case TopologyKind::kUniformDisk:
      out.tags = uniform_disk(cfg.num_tags, cfg.extent_m, rng);
      out.helpers = lattice(cfg.num_helpers, 2.0 * cfg.extent_m);
      out.aps = midline(cfg.num_aps, 2.0 * cfg.extent_m, cfg.extent_m);
      break;
    case TopologyKind::kHospitalWard:
      out = hospital_ward(cfg, rng);
      break;
  }
  return out;
}

}  // namespace itb::sim
