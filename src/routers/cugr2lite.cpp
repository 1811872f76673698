#include "routers/cugr2lite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "eval/metrics.hpp"
#include "routers/maze.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::routers {

using dag::PatternPath;
using eval::NetRoute;
using eval::RouteSolution;
using grid::EdgeId;

namespace {

/// Scale of the logistic congestion penalty. It equals eval::kOverflowWeight
/// only by choice: it prices congestion, it does not score routes.
constexpr double kCongestionWeight = 500.0;
/// Steepness of the logistic congestion cost.
constexpr double kLogisticSlope = 2.0;

}  // namespace

Cugr2Lite::Cugr2Lite(const design::Design& design, std::vector<float> capacities,
                     Cugr2LiteOptions options)
    : design_(design),
      capacities_(std::move(capacities)),
      options_(options),
      demand_(design.grid()) {
  via_cost_scale_ = std::sqrt(static_cast<double>(design.grid().layer_count()));
}

double Cugr2Lite::edge_cost(EdgeId e) const {
  const double d = demand_.demand(e);
  const double cap = capacities_[static_cast<std::size_t>(e)];
  // Logistic congestion cost as in CUGR/CUGR2's probabilistic model: cheap
  // while the edge has slack, ramping steeply as demand approaches capacity.
  const double x = kLogisticSlope * (d + 1.0 - cap);
  const double congestion = 1.0 / (1.0 + std::exp(-x));
  return eval::kWirelengthWeight + kCongestionWeight * congestion;
}

NetRoute Cugr2Lite::route_net(std::size_t design_net, bool allow_maze) {
  NetRoute route;
  route.design_net = design_net;
  const auto& grid = design_.grid();
  const rsmt::SteinerTree tree = builder_.build(design_.net(design_net).pins);

  for (const auto& [ia, ib] : tree.edges) {
    const geom::Point a = tree.nodes[static_cast<std::size_t>(ia)];
    const geom::Point b = tree.nodes[static_cast<std::size_t>(ib)];

    // DP over the pattern candidates: pick the min-cost embedding.
    const std::vector<PatternPath> candidates = dag::enumerate_paths(a, b, options_.paths);
    double best_cost = std::numeric_limits<double>::infinity();
    const PatternPath* best = nullptr;
    for (const PatternPath& cand : candidates) {
      double cost = eval::kViaWeight * via_cost_scale_ *
                    static_cast<double>(cand.bend_count());
      for (const EdgeId e : cand.edges(grid)) cost += edge_cost(e);
      if (cost < best_cost) {
        best_cost = cost;
        best = &cand;
      }
    }

    PatternPath chosen = *best;
    if (allow_maze && options_.maze_fallback) {
      // Escape hatch: when every pattern candidate still crosses congestion,
      // let a maze route detour around it (CUGR2's maze refinement role).
      const MazeResult mz =
          maze_route(grid, {a}, b, [this](EdgeId e) { return edge_cost(e); });
      if (mz.found) {
        const PatternPath maze_path = compress_cells(mz.cells);
        const double maze_cost =
            mz.cost + eval::kViaWeight * via_cost_scale_ *
                          static_cast<double>(maze_path.bend_count());
        if (maze_cost < best_cost) chosen = maze_path;
      }
    }
    route.paths.push_back(std::move(chosen));
  }
  return route;
}

RouteSolution Cugr2Lite::route(Cugr2LiteStats* stats, const RouteSolution* warm_start) {
  util::Timer timer;
  demand_.clear();
  RouteSolution sol;
  sol.design = &design_;
  const auto& routable = design_.routable_nets();
  sol.nets.resize(routable.size());

  // Warm start: the run is pure rip-up-and-reroute from the prior state.
  const std::vector<char> seeded = sol.seed_from(warm_start, demand_, options_.via_beta);

  // Initial sequential pass: short nets first (they have the least routing
  // flexibility, the classic sequential ordering heuristic).
  std::vector<std::size_t> order(routable.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const auto hp = [&](std::size_t i) {
      return geom::Rect::bounding_box(design_.net(routable[i]).pins).hpwl();
    };
    return hp(x) < hp(y);
  });

  std::int64_t rerouted = 0;
  for (const std::size_t i : order) {
    if (seeded[i]) continue;
    sol.nets[i] = route_net(routable[i], /*allow_maze=*/false);
    RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
    ++rerouted;
  }

  // RRR can regress on individual rounds; keep the best snapshot seen.
  RouteSolution best = sol;
  auto best_score = eval::reroute_score(sol, demand_, capacities_);

  bool timed_out = false;
  int round = 0;
  for (; round < options_.rrr_rounds; ++round) {
    if (options_.deadline.expired()) {
      timed_out = true;
      break;
    }
    const std::vector<eval::OverflowedNet> victims =
        eval::overflowed_nets(sol, demand_, capacities_);
    if (victims.empty()) break;

    // Maze escape only in the later half of the RRR schedule.
    const bool allow_maze = round + 1 >= (options_.rrr_rounds + 1) / 2;
    for (const eval::OverflowedNet& victim : victims) {
      const std::size_t i = victim.slot;
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, -1.0);
      sol.nets[i] = route_net(routable[i], allow_maze);
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
      ++rerouted;
    }
    DGR_LOG_DEBUG("cugr2lite round %d: %zu victims", round, victims.size());
    const auto s = eval::reroute_score(sol, demand_, capacities_);
    if (s < best_score) {
      best_score = s;
      best = sol;
    }
  }

  if (stats != nullptr) {
    stats->rounds_run = round;
    stats->nets_rerouted = rerouted;
    stats->route_seconds = timer.seconds();
    stats->timed_out = timed_out;
  }
  return best;
}

}  // namespace dgr::routers
