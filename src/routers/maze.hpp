#pragma once
// Shared maze-routing machinery for the sequential baseline routers and the
// post-processing refinement stage: one multi-source Dijkstra engine over
// the g-cell graph, the nearest-pin-first net connector built on it, and
// helpers to turn cell walks into PatternPath polylines.
//
// The engine is a template on its edge cost and on-path hook, so both
// inline into the search loop. Its state lives in the calling thread's
// MazeWorkspace: per-cell `dist`/`prev` are stamped with a search epoch
// instead of being refilled, and the queue, the walk buffer and the
// connector's component are reused, so a search allocates only what it
// returns.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dag/path.hpp"
#include "grid/gcell_grid.hpp"
#include "util/status.hpp"

namespace dgr::routers {

using dag::PatternPath;
using geom::Point;
using grid::CellId;
using grid::EdgeId;
using grid::GCellGrid;

struct MazeResult {
  bool found = false;
  double cost = 0.0;
  std::vector<Point> cells;  ///< source cell ... target cell (inclusive)
  /// Typed outcome: OK when a path was found; kUnreachableTarget when the
  /// search exhausted the grid without reaching the target (e.g. an edge
  /// cost of +inf walls it off); kInvalidArgument for an empty source set
  /// or a source or target outside the grid; defaults to kCancelled so
  /// callers can tell "no path exists" apart from "search never ran".
  Status status{StatusCode::kCancelled, "maze: not attempted"};
};

/// One net's maze-routed paths, or empty paths and the search's status when
/// a pin was unreachable (or the pin list empty or off the grid).
struct MazeConnection {
  std::vector<PatternPath> paths;
  Status status;
};

/// Compresses a cell walk into a waypoint polyline (collinear runs merged).
/// The result is a valid PatternPath geometry (possibly non-monotone).
PatternPath compress_cells(const std::vector<Point>& cells);

/// Per-edge wire count of the net being connected, so its edge cost can
/// make the net's own wires cheaper for its later legs
/// (post::maze_reroute_net). reset() zeroes only the edges the previous net
/// touched, so a reroute costs its own edges, not the grid.
class EdgeUsage {
 public:
  /// Zeroes the previous net's edges and sizes the map for `grid`.
  void reset(const GCellGrid& grid);
  double operator[](EdgeId e) const { return count_[static_cast<std::size_t>(e)]; }
  /// Adds one wire on every edge `path` crosses.
  void add(const GCellGrid& grid, const PatternPath& path);

 private:
  std::vector<double> count_;
  std::vector<EdgeId> touched_;
};

/// The maze engine's per-thread scratch: epoch-stamped cell state, the
/// queue, the walk and component buffers, and the own-usage map. It grows to
/// the largest grid its thread has searched and is never shrunk.
class MazeWorkspace {
 public:
  /// The calling thread's workspace. Searches on one thread run one at a
  /// time: an edge cost or on-path hook must not start another search.
  static MazeWorkspace& local();

  EdgeUsage& usage() { return usage_; }

  /// Dijkstra from any of `sources` (all seeded at distance 0) to `target`.
  template <class Cost>
  MazeResult route(const GCellGrid& grid, const std::vector<Point>& sources, Point target,
                   Cost& edge_cost);

  /// Nearest-pin-first connection of `pins`; see maze_connect.
  template <class Cost, class OnPath>
  MazeConnection connect(const GCellGrid& grid, const std::vector<Point>& pins,
                         Cost& edge_cost, OnPath& on_path);

 private:
  /// The engine's exact min-queue on (dist, cell): a radix heap. Dijkstra
  /// pops non-decreasing distances, and a non-negative double orders like its
  /// bit pattern, so an entry goes to the bucket of the highest bit in which
  /// its key differs from the last popped one and moves down only when that
  /// bucket holds the minimum. Bucket 0 holds the entries at the last popped
  /// distance, sorted by descending cell, so equal distances pop by ascending
  /// cell as a binary heap on the pair would pop them.
  class Queue {
   public:
    struct Entry {
      double dist;
      CellId cell;
    };

    bool empty() const { return size_ == 0; }
    void clear() {
      bucket_[0].clear();
      for (std::uint64_t m = used_; m != 0; m &= m - 1) bucket_[std::countr_zero(m) + 1].clear();
      used_ = 0;
      last_ = 0;
      size_ = 0;
      sorted_ = true;
    }
    /// Precondition: dist >= the last popped dist (Dijkstra's order).
    void push(double dist, CellId cell) {
      ++size_;
      place({dist, cell});
    }
    Entry pop() {
      if (bucket_[0].empty()) refill();
      if (!sorted_) {
        std::sort(bucket_[0].begin(), bucket_[0].end(),
                  [](const Entry& x, const Entry& y) { return x.cell > y.cell; });
        sorted_ = true;
      }
      const Entry top = bucket_[0].back();
      bucket_[0].pop_back();
      --size_;
      return top;
    }

   private:
    void place(Entry e) {
      const std::uint64_t k = std::bit_cast<std::uint64_t>(e.dist);
      if (k == last_) {
        bucket_[0].push_back(e);
        sorted_ = bucket_[0].size() == 1;
        return;
      }
      const int b = 64 - std::countl_zero(k ^ last_);
      bucket_[b].push_back(e);
      used_ |= std::uint64_t{1} << (b - 1);
    }
    /// Moves the lowest non-empty bucket down around its minimum.
    void refill() {
      const int b = std::countr_zero(used_) + 1;
      std::vector<Entry>& from = bucket_[b];
      std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
      for (const Entry& e : from) lo = std::min(lo, std::bit_cast<std::uint64_t>(e.dist));
      last_ = lo;
      used_ &= ~(std::uint64_t{1} << (b - 1));
      for (const Entry& e : from) place(e);  // every entry lands below bucket b
      from.clear();
    }

    std::vector<Entry> bucket_[65];
    std::uint64_t used_ = 0;  ///< bit b-1 set iff bucket b (b >= 1) is non-empty
    std::uint64_t last_ = 0;  ///< bits of the last popped dist
    std::size_t size_ = 0;
    bool sorted_ = true;  ///< bucket 0 is in descending cell order
  };

  struct CellState {
    double dist;
    CellId prev;
    std::uint32_t epoch;  ///< dist/prev are this search's iff epoch == epoch_
  };
  double dist(CellId c) const {
    const CellState& s = cells_[static_cast<std::size_t>(c)];
    return s.epoch == epoch_ ? s.dist : std::numeric_limits<double>::infinity();
  }
  void settle(CellId c, double d, CellId prev) {
    cells_[static_cast<std::size_t>(c)] = {d, prev, epoch_};
    queue_.push(d, c);
  }

  /// Runs one search from `sources` (in the grid) to `target`. Returns
  /// whether the target was reached; walk() then yields the path.
  template <class Cost>
  bool search(const GCellGrid& grid, const Point* sources, std::size_t source_count,
              CellId target, Cost& edge_cost);
  /// Fills walk_ with the found path, source first.
  void walk(const GCellGrid& grid, CellId target);
  static Status unreachable(Point target, std::size_t source_count);
  /// kInvalidArgument naming the `what` ("source", "target", "pin") at `p`.
  static Status off_grid(const char* what, Point p);

  std::vector<CellState> cells_;
  std::uint32_t epoch_ = 0;
  /// Entries are unique by (dist, cell), since a cell is pushed only at a
  /// strictly lower dist, so any exact min-queue on that pair pops them in
  /// one order and the routes do not depend on the queue.
  Queue queue_;
  std::vector<Point> walk_;
  std::vector<Point> component_;
  std::vector<char> connected_;
  EdgeUsage usage_;
};

/// Dijkstra from any of `sources` (all seeded at distance 0) to `target`.
/// `edge_cost(EdgeId) -> double` must return a strictly positive cost per
/// g-cell edge (+inf walls an edge off). `result.status` distinguishes
/// success, an unreachable target, and invalid input (an empty source set,
/// or a source or target outside the grid: kInvalidArgument); `cells` is
/// empty unless found.
template <class Cost>
MazeResult maze_route(const GCellGrid& grid, const std::vector<Point>& sources, Point target,
                      Cost&& edge_cost) {
  return MazeWorkspace::local().route(grid, sources, target, edge_cost);
}

/// The on-path hook of a connection that needs none.
struct NoPathHook {
  void operator()(const PatternPath&) const {}
};

/// Connects a net's pins (deduplicated) by growing one component from the
/// first pin: each step searches from every cell of the component to the
/// unconnected pin nearest to it (Manhattan), under `edge_cost`. `on_path`
/// sees each new path before the next search, so a caller can make the
/// net's own wires cheaper for its later legs. An empty pin list or a pin
/// outside the grid returns kInvalidArgument with no paths.
template <class Cost, class OnPath = NoPathHook>
MazeConnection maze_connect(const GCellGrid& grid, const std::vector<Point>& pins,
                            Cost&& edge_cost, OnPath&& on_path = {}) {
  return MazeWorkspace::local().connect(grid, pins, edge_cost, on_path);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

template <class Cost>
bool MazeWorkspace::search(const GCellGrid& grid, const Point* sources,
                           std::size_t source_count, CellId target, Cost& edge_cost) {
  const auto cell_count = static_cast<std::size_t>(grid.cell_count());
  if (cells_.size() < cell_count) cells_.resize(cell_count, CellState{0.0, -1, 0});
  if (++epoch_ == 0) {  // wrapped: forget every stamp
    for (CellState& s : cells_) s.epoch = 0;
    epoch_ = 1;
  }
  queue_.clear();
  for (std::size_t i = 0; i < source_count; ++i) {
    const CellId c = grid.cell_id(sources[i]);
    if (dist(c) > 0.0) settle(c, 0.0, -1);
  }

  // Neighbours and their edges come from the cell id: h_edge(x, y) is
  // c - y and v_edge(x, y) is Eh + c (grid/gcell_grid.hpp), so the loop
  // does one division per pop. A cell keeps the first predecessor that
  // reaches its final dist, so the queue's pop order, not the order of the
  // four relaxations below, breaks ties between equal-cost paths.
  const CellId width = grid.width();
  const CellId height = grid.height();
  const EdgeId eh = grid.h_edge_count();
  auto relax = [&](double d, CellId from, CellId to, EdgeId e) {
    const double nd = d + edge_cost(e);
    if (nd < dist(to)) settle(to, nd, from);
  };
  while (!queue_.empty()) {
    const Queue::Entry top = queue_.pop();
    const CellId c = top.cell;
    if (top.dist > cells_[static_cast<std::size_t>(c)].dist) continue;  // stale entry
    if (c == target) break;
    const CellId y = c / width;
    const CellId x = c - y * width;
    if (x > 0) relax(top.dist, c, c - 1, c - y - 1);
    if (x + 1 < width) relax(top.dist, c, c + 1, c - y);
    if (y > 0) relax(top.dist, c, c - width, eh + c - width);
    if (y + 1 < height) relax(top.dist, c, c + width, eh + c);
  }
  return std::isfinite(dist(target));
}

template <class Cost>
MazeResult MazeWorkspace::route(const GCellGrid& grid, const std::vector<Point>& sources,
                                Point target, Cost& edge_cost) {
  MazeResult result;
  if (sources.empty()) {
    result.status = Status(StatusCode::kInvalidArgument, "maze: empty source set");
    return result;
  }
  for (const Point& p : sources) {
    if (!grid.in_bounds(p)) {
      result.status = off_grid("source", p);
      return result;
    }
  }
  if (!grid.in_bounds(target)) {
    result.status = off_grid("target", target);
    return result;
  }
  const CellId target_id = grid.cell_id(target);
  if (!search(grid, sources.data(), sources.size(), target_id, edge_cost)) {
    result.status = unreachable(target, sources.size());
    return result;
  }
  result.found = true;
  result.status = Status();  // OK
  result.cost = dist(target_id);
  walk(grid, target_id);
  result.cells = walk_;
  return result;
}

template <class Cost, class OnPath>
MazeConnection MazeWorkspace::connect(const GCellGrid& grid, const std::vector<Point>& net_pins,
                                      Cost& edge_cost, OnPath& on_path) {
  MazeConnection out;
  if (net_pins.empty()) {
    out.status = Status(StatusCode::kInvalidArgument, "maze: empty pin list");
    return out;
  }
  for (const Point& p : net_pins) {
    if (!grid.in_bounds(p)) {
      out.status = off_grid("pin", p);
      return out;
    }
  }
  const std::vector<Point> pins = geom::dedupe_points(net_pins);
  component_.assign(1, pins.front());
  connected_.assign(pins.size(), 0);
  connected_[0] = 1;
  for (std::size_t step = 1; step < pins.size(); ++step) {
    std::size_t next = pins.size();
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (connected_[i]) continue;
      for (const Point& c : component_) {
        const std::int64_t d = geom::manhattan(pins[i], c);
        if (d < best_d) {
          best_d = d;
          next = i;
        }
      }
    }
    const CellId target = grid.cell_id(pins[next]);
    if (!search(grid, component_.data(), component_.size(), target, edge_cost)) {
      // Only a pathological cost (e.g. +inf walls) strands a pin on the
      // connected grid. Return no geometry rather than a partial net.
      out.paths.clear();
      out.status = unreachable(pins[next], component_.size());
      return out;
    }
    walk(grid, target);
    out.paths.push_back(compress_cells(walk_));
    on_path(out.paths.back());
    component_.insert(component_.end(), walk_.begin(), walk_.end());
    connected_[next] = 1;
  }
  return out;
}

}  // namespace dgr::routers
