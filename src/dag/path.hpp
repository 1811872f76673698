#pragma once
// 2-pin pattern-path enumeration (L- and Z-shapes).
//
// A pattern path between g-cells a and b is a monotone rectilinear polyline;
// its wirelength is always manhattan(a,b) and its via pressure comes from
// its bends (turning points). The DAG forest stores each path as the list
// of g-cell edges it crosses plus its bend cells.

#include <vector>

#include "grid/gcell_grid.hpp"

namespace dgr::dag {

using geom::Point;
using grid::EdgeId;
using grid::GCellGrid;

/// A concrete embedded path: waypoints a, bends..., b (each consecutive pair
/// axis-aligned).
struct PatternPath {
  std::vector<Point> waypoints;  ///< >= 2 entries; consecutive entries axis-aligned

  std::size_t bend_count() const { return waypoints.size() - 2; }
  /// All g-cell edges crossed, in walk order.
  std::vector<EdgeId> edges(const GCellGrid& grid) const;
  /// Bend cells (waypoints minus the two endpoints).
  std::vector<Point> bends() const {
    return {waypoints.begin() + 1, waypoints.end() - 1};
  }
  std::int64_t length() const;

  bool operator==(const PatternPath&) const = default;
};

struct PathEnumOptions {
  /// Number of extra Z-shape candidates per orientation (0 = L-shapes only,
  /// the paper's default; Section 3.1 mentions Z/C/monotone as extensions).
  int z_samples = 0;
  /// Number of C-shape (detour) candidates per side. A C-shape leaves the
  /// pin bounding box by `c_detour` cells and comes back, so its wirelength
  /// exceeds manhattan(a,b) by 2*c_detour — the escape pattern routers use
  /// when everything inside the box is congested. Requires grid bounds at
  /// enumeration time, so C-shapes are only produced by the grid-aware
  /// overload below.
  int c_samples = 0;
  int c_detour = 1;

  bool operator==(const PathEnumOptions&) const = default;
};

/// Enumerates pattern-path candidates between a and b:
///  - a == b            -> one degenerate zero-length path
///  - axis-aligned      -> the single straight path
///  - otherwise         -> the two L-shapes, plus optional Z-shapes with an
///                         intermediate jog (HVH jogs at sampled x, VHV jogs
///                         at sampled y), deduplicated.
/// This overload never emits C-shapes (no grid to clamp them against).
std::vector<PatternPath> enumerate_paths(Point a, Point b, const PathEnumOptions& opts = {});

/// Grid-aware overload: everything above plus C-shape detours (clamped to
/// the grid; candidates that would leave it are skipped).
std::vector<PatternPath> enumerate_paths(Point a, Point b, const PathEnumOptions& opts,
                                         const GCellGrid& grid);

/// Validates a path: in-bounds, consecutive waypoints axis-aligned and
/// distinct (except the degenerate single-cell case). When
/// `require_monotone` is set, per-axis direction must never flip (true for
/// L/Z patterns; C-shapes and maze detours are legitimately non-monotone).
bool path_is_valid(const PatternPath& path, const GCellGrid& grid,
                   bool require_monotone = true);

}  // namespace dgr::dag
