#pragma once
// Reference maze search for the differential tests: the plain Dijkstra the
// engine in routers/maze.hpp must match bit for bit. It allocates and fills
// full-grid dist/prev arrays on every search, keeps its queue in a
// std::priority_queue on (dist, cell), and calls its edge cost through
// std::function. It does not validate its inputs: sources and target must
// lie in the grid, and the pin list must not be empty.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "routers/maze.hpp"

namespace dgr::routers::reference {

inline MazeResult maze_route(const GCellGrid& grid, const std::vector<Point>& sources,
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
    const Point t = grid.cell_point(static_cast<std::int32_t>(target_id));
    result.status = Status(StatusCode::kUnreachableTarget,
                           "maze: target (" + std::to_string(t.x) + "," +
                               std::to_string(t.y) + ") unreachable from " +
                               std::to_string(sources.size()) + " source(s)");
    return result;
  }
  result.found = true;
  result.status = Status();
  result.cost = dist[target_id];
  std::vector<Point> reversed;
  std::int32_t cur = static_cast<std::int32_t>(target_id);
  while (cur >= 0) {
    reversed.push_back(grid.cell_point(cur));
    cur = prev[static_cast<std::size_t>(cur)];
  }
  result.cells.assign(reversed.rbegin(), reversed.rend());
  return result;
}

inline MazeConnection maze_connect(const GCellGrid& grid, const std::vector<Point>& net_pins,
                                   const std::function<double(EdgeId)>& edge_cost,
                                   const std::function<void(const PatternPath&)>& on_path = {}) {
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

}  // namespace dgr::routers::reference
