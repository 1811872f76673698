#include "routers/maze.hpp"

#include <cmath>
#include <limits>
#include <queue>

namespace dgr::routers {

MazeResult maze_route(const GCellGrid& grid, const std::vector<Point>& sources,
                      Point target, const std::function<double(EdgeId)>& edge_cost) {
  MazeResult result;
  if (sources.empty()) {
    result.status = Status(StatusCode::kInvalidArgument, "maze: empty source set");
    return result;
  }
  const auto num_cells = static_cast<std::size_t>(grid.cell_count());
  std::vector<double> dist(num_cells, std::numeric_limits<double>::infinity());
  std::vector<std::int32_t> prev(num_cells, -1);

  using QItem = std::pair<double, std::int32_t>;  // (dist, cell)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  for (const Point& s : sources) {
    const auto c = static_cast<std::size_t>(grid.cell_id(s));
    if (dist[c] > 0.0) {
      dist[c] = 0.0;
      queue.push({0.0, static_cast<std::int32_t>(c)});
    }
  }
  const auto target_id = static_cast<std::size_t>(grid.cell_id(target));

  while (!queue.empty()) {
    const auto [d, cell] = queue.top();
    queue.pop();
    const auto c = static_cast<std::size_t>(cell);
    if (d > dist[c]) continue;  // stale entry
    if (c == target_id) break;
    const Point p = grid.cell_point(cell);
    const Point neighbours[4] = {
        {static_cast<geom::Coord>(p.x - 1), p.y},
        {static_cast<geom::Coord>(p.x + 1), p.y},
        {p.x, static_cast<geom::Coord>(p.y - 1)},
        {p.x, static_cast<geom::Coord>(p.y + 1)},
    };
    for (const Point& q : neighbours) {
      if (!grid.in_bounds(q)) continue;
      const EdgeId e = grid.edge_between(p, q);
      const double nd = d + edge_cost(e);
      const auto qc = static_cast<std::size_t>(grid.cell_id(q));
      if (nd < dist[qc]) {
        dist[qc] = nd;
        prev[qc] = cell;
        queue.push({nd, static_cast<std::int32_t>(qc)});
      }
    }
  }

  if (!std::isfinite(dist[target_id])) {
    // Surface the dead end as a typed Status instead of a silent empty
    // result, so callers can distinguish "no path" from "not attempted".
    const Point t = grid.cell_point(static_cast<std::int32_t>(target_id));
    result.status = Status(StatusCode::kUnreachableTarget,
                           "maze: target (" + std::to_string(t.x) + "," +
                               std::to_string(t.y) + ") unreachable from " +
                               std::to_string(sources.size()) + " source(s)");
    return result;
  }
  result.found = true;
  result.status = Status();  // OK
  result.cost = dist[target_id];
  // Walk predecessors back to a source.
  std::vector<Point> reversed;
  std::int32_t cur = static_cast<std::int32_t>(target_id);
  while (cur >= 0) {
    reversed.push_back(grid.cell_point(cur));
    cur = prev[static_cast<std::size_t>(cur)];
  }
  result.cells.assign(reversed.rbegin(), reversed.rend());
  return result;
}

MazeConnection maze_connect(const GCellGrid& grid, const std::vector<Point>& net_pins,
                            const std::function<double(EdgeId)>& edge_cost,
                            const std::function<void(const PatternPath&)>& on_path) {
  MazeConnection out;
  const std::vector<Point> pins = geom::dedupe_points(net_pins);
  std::vector<Point> component{pins.front()};
  std::vector<bool> connected(pins.size(), false);
  connected[0] = true;
  for (std::size_t step = 1; step < pins.size(); ++step) {
    std::size_t next = pins.size();
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (connected[i]) continue;
      for (const Point& c : component) {
        const std::int64_t d = geom::manhattan(pins[i], c);
        if (d < best_d) {
          best_d = d;
          next = i;
        }
      }
    }
    const MazeResult mz = maze_route(grid, component, pins[next], edge_cost);
    if (!mz.found) {
      // Only a pathological cost (e.g. +inf walls) strands a pin on the
      // connected grid. Return no geometry rather than a partial net.
      out.paths.clear();
      out.status = mz.status;
      return out;
    }
    out.paths.push_back(compress_cells(mz.cells));
    if (on_path) on_path(out.paths.back());
    component.insert(component.end(), mz.cells.begin(), mz.cells.end());
    connected[next] = true;
  }
  return out;
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
