#pragma once
// Shared maze-routing machinery for the sequential baseline routers and the
// post-processing refinement stage: multi-source Dijkstra over the g-cell
// graph with a caller-supplied edge cost, the nearest-pin-first net
// connector built on it, and helpers to turn cell walks into PatternPath
// polylines.

#include <functional>
#include <vector>

#include "dag/path.hpp"
#include "grid/gcell_grid.hpp"
#include "util/status.hpp"

namespace dgr::routers {

using dag::PatternPath;
using geom::Point;
using grid::EdgeId;
using grid::GCellGrid;

struct MazeResult {
  bool found = false;
  double cost = 0.0;
  std::vector<Point> cells;  ///< source cell ... target cell (inclusive)
  /// Typed outcome: OK when a path was found; kUnreachableTarget when the
  /// search exhausted the grid without reaching the target (e.g. an edge
  /// cost of +inf walls it off); defaults to kCancelled so callers can tell
  /// "no path exists" apart from "search never ran".
  Status status{StatusCode::kCancelled, "maze: not attempted"};
};

/// Dijkstra from any of `sources` (all seeded at distance 0) to `target`.
/// `edge_cost` must return a strictly positive cost per g-cell edge.
/// `result.status` distinguishes success, an unreachable target and an
/// empty source set (kInvalidArgument); `cells` is empty unless found.
MazeResult maze_route(const GCellGrid& grid, const std::vector<Point>& sources,
                      Point target, const std::function<double(EdgeId)>& edge_cost);

/// One net's maze-routed paths, or empty paths and the search's status when
/// a pin was unreachable.
struct MazeConnection {
  std::vector<PatternPath> paths;
  Status status;
};

/// Connects a net's pins (deduplicated) by growing one component from the
/// first pin: each step searches from every cell of the component to the
/// unconnected pin nearest to it (Manhattan), under `edge_cost`. `on_path`,
/// when set, sees each new path before the next search, so a caller can
/// make the net's own wires cheaper for its later legs.
MazeConnection maze_connect(const GCellGrid& grid, const std::vector<Point>& pins,
                            const std::function<double(EdgeId)>& edge_cost,
                            const std::function<void(const PatternPath&)>& on_path = {});

/// Compresses a cell walk into a waypoint polyline (collinear runs merged).
/// The result is a valid PatternPath geometry (possibly non-monotone).
PatternPath compress_cells(const std::vector<Point>& cells);

}  // namespace dgr::routers
