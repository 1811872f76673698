#include "routers/sproute_lite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "routers/maze.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::routers {

using eval::NetRoute;
using eval::RouteSolution;
using geom::Point;
using grid::EdgeId;

SpRouteLite::SpRouteLite(const design::Design& design, std::vector<float> capacities,
                         SpRouteLiteOptions options)
    : design_(design),
      capacities_(std::move(capacities)),
      options_(options),
      demand_(design.grid()),
      history_(static_cast<std::size_t>(design.grid().edge_count()), 0.0) {}

double SpRouteLite::edge_cost(EdgeId e) const {
  const double d = demand_.demand(e);
  const double cap = capacities_[static_cast<std::size_t>(e)];
  // Soft capacity: overuse is measured against soft_capacity * cap, so the
  // router starts avoiding an edge before it is actually full.
  const double soft_cap = options_.soft_capacity * cap;
  const double overuse = std::max(0.0, d + 1.0 - soft_cap);
  const double present = options_.present_factor * overuse;
  const double hist = options_.history_factor * history_[static_cast<std::size_t>(e)];
  return 1.0 + present * (1.0 + hist);
}

NetRoute SpRouteLite::route_net(std::size_t design_net) {
  NetRoute route;
  route.design_net = design_net;
  const auto& grid = design_.grid();
  std::vector<Point> pins = geom::dedupe_points(design_.net(design_net).pins);

  // Grow a connected component pin by pin, nearest unconnected pin first.
  std::vector<Point> component{pins.front()};
  std::vector<bool> connected(pins.size(), false);
  connected[0] = true;
  for (std::size_t step = 1; step < pins.size(); ++step) {
    // Nearest unconnected pin to the component (Manhattan heuristic).
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
    const MazeResult mz = maze_route(grid, component, pins[next],
                                     [this](EdgeId e) { return edge_cost(e); });
    if (!mz.found) {
      // The grid is connected so this only happens with a pathological cost
      // function; return an (empty) incomplete route rather than fabricate
      // geometry — the pipeline's validation gate repairs such nets.
      DGR_LOG_WARN("sproute_lite net %zu: %s", design_net, mz.status.to_string().c_str());
      route.paths.clear();
      return route;
    }
    dag::PatternPath path = compress_cells(mz.cells);
    for (const Point& cell : mz.cells) component.push_back(cell);
    route.paths.push_back(std::move(path));
    connected[next] = true;
  }
  return route;
}

RouteSolution SpRouteLite::route(SpRouteLiteStats* stats, const RouteSolution* warm_start) {
  util::Timer timer;
  demand_.clear();
  std::fill(history_.begin(), history_.end(), 0.0);

  RouteSolution sol;
  sol.design = &design_;
  const auto& routable = design_.routable_nets();
  sol.nets.resize(routable.size());

  // Warm start: adopt the prior solution's routes (same-design solutions
  // only); negotiation then rips up only what still overflows.
  std::vector<char> seeded(routable.size(), 0);
  if (warm_start != nullptr && warm_start->design == &design_) {
    std::vector<std::size_t> slot_of(design_.net_count(), routable.size());
    for (std::size_t i = 0; i < routable.size(); ++i) slot_of[routable[i]] = i;
    for (const NetRoute& net : warm_start->nets) {
      const std::size_t slot = slot_of[net.design_net];
      if (slot == routable.size() || net.paths.empty()) continue;
      sol.nets[slot] = net;
      RouteSolution::apply_net(demand_, design_, sol.nets[slot], options_.via_beta, +1.0);
      seeded[slot] = 1;
    }
  }

  std::int64_t reroutes = 0;
  for (std::size_t i = 0; i < routable.size(); ++i) {
    if (seeded[i]) continue;
    sol.nets[i] = route_net(routable[i]);
    RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
    ++reroutes;
  }

  // Negotiation is not monotone round-to-round; keep the best snapshot.
  auto score = [&] {
    std::int64_t wl = 0;
    for (const auto& net : sol.nets) {
      for (const auto& p : net.paths) wl += p.length();
    }
    return std::tuple(demand_.overflowed_edge_count(capacities_),
                      demand_.total_overflow(capacities_), wl);
  };
  RouteSolution best = sol;
  auto best_score = score();

  bool timed_out = false;
  int round = 0;
  for (; round < options_.max_rounds; ++round) {
    if (options_.deadline.expired()) {
      timed_out = true;
      break;
    }
    // Negotiation: bump history on overflowed edges, then reroute the nets
    // crossing them.
    std::vector<bool> edge_over(history_.size(), false);
    bool any = false;
    for (std::size_t e = 0; e < history_.size(); ++e) {
      if (demand_.demand(static_cast<EdgeId>(e)) > capacities_[e] + 1e-6) {
        edge_over[e] = true;
        history_[e] += options_.history_step;
        any = true;
      }
    }
    if (!any) break;

    for (std::size_t i = 0; i < sol.nets.size(); ++i) {
      bool over = false;
      for (const dag::PatternPath& p : sol.nets[i].paths) {
        for (const EdgeId e : p.edges(design_.grid())) {
          if (edge_over[static_cast<std::size_t>(e)]) {
            over = true;
            break;
          }
        }
        if (over) break;
      }
      if (!over) continue;
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, -1.0);
      sol.nets[i] = route_net(routable[i]);
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
      ++reroutes;
    }
    DGR_LOG_DEBUG("sproute_lite round %d done", round);
    const auto s = score();
    if (s < best_score) {
      best_score = s;
      best = sol;
    }
  }

  if (stats != nullptr) {
    stats->rounds_run = round;
    stats->reroutes = reroutes;
    stats->route_seconds = timer.seconds();
    stats->timed_out = timed_out;
  }
  return best;
}

}  // namespace dgr::routers
