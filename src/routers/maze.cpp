#include "routers/maze.hpp"

#include <string>

namespace dgr::routers {

MazeWorkspace& MazeWorkspace::local() {
  thread_local MazeWorkspace workspace;
  return workspace;
}

void MazeWorkspace::walk(const GCellGrid& grid, CellId target) {
  walk_.clear();
  for (CellId cur = target; cur >= 0; cur = cells_[static_cast<std::size_t>(cur)].prev) {
    walk_.push_back(grid.cell_point(cur));
  }
  std::reverse(walk_.begin(), walk_.end());
}

Status MazeWorkspace::unreachable(Point target, std::size_t source_count) {
  // Surface the dead end as a typed Status instead of a silent empty
  // result, so callers can distinguish "no path" from "not attempted".
  return Status(StatusCode::kUnreachableTarget,
                "maze: target (" + std::to_string(target.x) + "," +
                    std::to_string(target.y) + ") unreachable from " +
                    std::to_string(source_count) + " source(s)");
}

Status MazeWorkspace::off_grid(const char* what, Point p) {
  return Status(StatusCode::kInvalidArgument, std::string("maze: ") + what + " (" +
                                                  std::to_string(p.x) + "," +
                                                  std::to_string(p.y) + ") outside the grid");
}

void EdgeUsage::reset(const GCellGrid& grid) {
  for (const EdgeId e : touched_) count_[static_cast<std::size_t>(e)] = 0.0;
  touched_.clear();
  const auto edges = static_cast<std::size_t>(grid.edge_count());
  if (count_.size() < edges) count_.resize(edges, 0.0);
}

void EdgeUsage::add(const GCellGrid& grid, const PatternPath& path) {
  // Whole wires are exact in a double, so the order of the adds is free.
  auto wire = [&](EdgeId e) {
    count_[static_cast<std::size_t>(e)] += 1.0;
    touched_.push_back(e);
  };
  for (std::size_t i = 0; i + 1 < path.waypoints.size(); ++i) {
    const Point a = path.waypoints[i];
    const Point b = path.waypoints[i + 1];
    for (geom::Coord x = std::min(a.x, b.x); x < std::max(a.x, b.x); ++x) {
      wire(grid.h_edge(x, a.y));
    }
    for (geom::Coord y = std::min(a.y, b.y); y < std::max(a.y, b.y); ++y) {
      wire(grid.v_edge(a.x, y));
    }
  }
}

PatternPath compress_cells(const std::vector<Point>& cells) {
  PatternPath path;
  if (cells.empty()) return path;
  path.waypoints.push_back(cells.front());
  for (std::size_t i = 1; i + 1 < cells.size(); ++i) {
    const Point& a = path.waypoints.back();
    const Point& b = cells[i];
    const Point& c = cells[i + 1];
    const bool collinear = (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y);
    if (!collinear) path.waypoints.push_back(b);
  }
  if (cells.size() > 1 || path.waypoints.front() == cells.back()) {
    path.waypoints.push_back(cells.back());
  }
  if (path.waypoints.size() == 1) path.waypoints.push_back(cells.back());
  return path;
}

}  // namespace dgr::routers
