// Deterministic spatial-hash grid for nearest-node queries over a fixed
// point set (BLE helpers, Wi-Fi APs).
//
// The topology build loop used to answer "which helper/AP is nearest to
// this tag?" with a brute-force O(nodes) scan per tag, which made topology
// construction O(tags x nodes) — superlinear for the hospital ward, where
// helpers and APs both grow with the fleet (43 ms at 5k tags, hours at 1M).
// This grid answers the same query in O(1) expected time.
//
// Determinism contract: nearest() is *bit-identical* to the brute-force
// nearest_index() scan, including tie-breaks.
//   - Candidate distances are computed with the same distance_m() call the
//     brute force uses, so the compared values are the same doubles.
//   - Within a cell, node indices are stored ascending (counting sort,
//     stable in index order), and across cells the running best is only
//     replaced on a strictly smaller distance or an equal distance with a
//     strictly smaller index — the lexicographic (distance, index) minimum,
//     which is exactly what "strict < scan in index order" returns.
//   - Ring expansion stops only once no unexamined cell can hold a node at
//     distance <= the current best (<=, not <: a tie at the same distance
//     but lower index could still win), so no tie candidate is ever pruned.
// The grid geometry (origin, cell size, cell counts) is a pure function of
// the node positions, never of thread count or query order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/topology.h"

namespace itb::sim {

class SpatialHashGrid {
 public:
  /// Returned by nearest() when no candidate exists (empty grid, or a
  /// one-node grid queried with that node excluded).
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Builds the grid over a snapshot of `nodes`. The cell size is fixed at
  /// build time from the node density (~one node per cell on average), so
  /// query cost stays O(1) expected regardless of fleet size.
  explicit SpatialHashGrid(std::vector<Vec2> nodes);

  /// Index of the node nearest to `p`, lowest index on distance ties —
  /// bit-identical to the brute-force nearest_index() scan. `exclude`
  /// skips one node index (next-nearest queries, e.g. AP failover).
  std::size_t nearest(const Vec2& p, std::size_t exclude = npos) const;

 private:
  std::size_t cell_of(const Vec2& p) const;

  std::vector<Vec2> nodes_;
  Real min_x_ = 0.0;
  Real min_y_ = 0.0;
  Real cell_ = 1.0;  ///< cell edge length, meters
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  /// CSR layout: cell c holds node indices order_[start_[c] .. start_[c+1]),
  /// ascending within each cell.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> order_;
};

}  // namespace itb::sim
