#pragma once
// Netlist + grid = a routing problem instance.
//
// Pins live on g-cells (2D coordinates); the pin layer does not matter for
// 2D pattern routing and is handled by layer assignment's via accounting.
// A net whose pins all fall in a single g-cell is "local": it consumes cell
// resources (Eq. 1's local_net term) but needs no global routing.

#include <string>
#include <vector>

#include "grid/demand_map.hpp"
#include "grid/gcell_grid.hpp"

namespace dgr::design {

using geom::Point;
using grid::GCellGrid;

/// Eq. (1)'s uniform beta: the share of a cell's pin density charged
/// against its edges' tracks.
inline constexpr float kCapacityBeta = 0.5f;

struct Net {
  std::string name;
  std::vector<Point> pins;  ///< deduplicated g-cell locations, >= 1 entry

  bool is_local() const {
    for (const Point& p : pins) {
      if (!(p == pins.front())) return false;
    }
    return true;
  }
};

class Design {
 public:
  Design() = default;
  Design(std::string name, GCellGrid grid, std::vector<Net> nets);

  const std::string& name() const { return name_; }
  const GCellGrid& grid() const { return grid_; }
  const std::vector<Net>& nets() const { return nets_; }
  const Net& net(std::size_t i) const { return nets_[i]; }
  std::size_t net_count() const { return nets_.size(); }

  /// Indices of nets that actually require routing (>= 2 distinct g-cells).
  const std::vector<std::size_t>& routable_nets() const { return routable_; }
  std::size_t local_net_count() const { return nets_.size() - routable_.size(); }

  /// Per-cell pin counts (input to Eq. 1).
  std::vector<float> pin_density() const;
  /// Per-cell local-net counts (input to Eq. 1).
  std::vector<float> local_net_density() const;

  /// Per-edge 2D capacities following Eq. (1) with beta = kCapacityBeta.
  std::vector<float> capacities() const;

  /// Sum over nets of pin-bounding-box half-perimeter: a lower bound on any
  /// routing solution's total wirelength.
  std::int64_t total_hpwl() const;

 private:
  std::string name_;
  GCellGrid grid_;
  std::vector<Net> nets_;
  std::vector<std::size_t> routable_;
};

}  // namespace dgr::design
