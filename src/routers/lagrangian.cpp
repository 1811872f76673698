#include "routers/lagrangian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "eval/metrics.hpp"
#include "routers/maze.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::routers {

using dag::PatternPath;
using eval::NetRoute;
using eval::RouteSolution;
using geom::Point;
using grid::EdgeId;

namespace {

/// Initial subgradient step; round k steps by kStep0 / sqrt(k + 1).
constexpr double kStep0 = 1.0;
/// Repair maze price per unit of overuse. It equals eval::kOverflowWeight
/// only by choice: it steers the search, it does not score routes.
constexpr double kRepairCongestionPrice = 500.0;

}  // namespace

RouteSolution LagrangianRouter::route(LagrangianStats* stats) {
  util::Timer timer;
  const auto& grid = design_.grid();
  const auto& routable = design_.routable_nets();
  const rsmt::RsmtBuilder builder;

  // Fixed tree decomposition; the Lagrangian iteration re-prices paths only.
  struct SubnetRef {
    std::size_t net;  ///< index into `routable`
    Point a, b;
  };
  std::vector<SubnetRef> subnets;
  for (std::size_t i = 0; i < routable.size(); ++i) {
    const rsmt::SteinerTree tree = builder.build(design_.net(routable[i]).pins);
    for (const auto& [ia, ib] : tree.edges) {
      subnets.push_back({i, tree.nodes[static_cast<std::size_t>(ia)],
                         tree.nodes[static_cast<std::size_t>(ib)]});
    }
  }

  std::vector<double> lambda(static_cast<std::size_t>(grid.edge_count()), 0.0);
  auto priced_cost = [&](EdgeId e) {
    return 1.0 + lambda[static_cast<std::size_t>(e)];
  };

  std::vector<PatternPath> current(subnets.size());
  RouteSolution best;
  std::int64_t best_over = std::numeric_limits<std::int64_t>::max();
  std::int64_t best_wl = std::numeric_limits<std::int64_t>::max();

  bool timed_out = false;
  int round = 0;
  double step = kStep0;
  for (; round < options_.rounds; ++round) {
    if (round > 0 && options_.deadline.expired()) {
      timed_out = true;
      break;
    }
    // 1. Shortest priced route per sub-net (independent => "concurrent" in
    //    the dual sense: no net sees another's demand, only the prices).
    grid::DemandMap demand(grid);
    for (std::size_t s = 0; s < subnets.size(); ++s) {
      const SubnetRef& ref = subnets[s];
      PatternPath chosen;
      double chosen_cost = std::numeric_limits<double>::infinity();
      for (const PatternPath& cand : dag::enumerate_paths(ref.a, ref.b, options_.paths)) {
        double c = 0.0;
        for (const EdgeId e : cand.edges(grid)) c += priced_cost(e);
        if (c < chosen_cost) {
          chosen_cost = c;
          chosen = cand;
        }
      }
      if (round > 0) {
        // Once prices exist, allow free-form detours (the pathfinding model).
        const MazeResult mz = maze_route(grid, {ref.a}, ref.b, priced_cost);
        if (mz.found && mz.cost < chosen_cost - 1e-9) chosen = compress_cells(mz.cells);
      }
      for (const EdgeId e : chosen.edges(grid)) demand.add(e, 1.0);
      current[s] = std::move(chosen);
    }

    // 2. Keep the best primal solution seen.
    std::int64_t over = demand.overflowed_edge_count(capacities_);
    std::int64_t wl = 0;
    for (const PatternPath& p : current) wl += p.length();
    if (over < best_over || (over == best_over && wl < best_wl)) {
      best_over = over;
      best_wl = wl;
      best.design = &design_;
      best.nets.assign(routable.size(), NetRoute{});
      for (std::size_t i = 0; i < routable.size(); ++i) {
        best.nets[i].design_net = routable[i];
      }
      for (std::size_t s = 0; s < subnets.size(); ++s) {
        best.nets[subnets[s].net].paths.push_back(current[s]);
      }
    }
    if (over == 0 && round > 0) break;  // feasible and prices settled

    // 3. Projected subgradient step on the multipliers.
    step = kStep0 / std::sqrt(static_cast<double>(round + 1));
    for (std::size_t e = 0; e < lambda.size(); ++e) {
      const double g = demand.demand(static_cast<EdgeId>(e)) -
                       static_cast<double>(capacities_[e]);
      lambda[e] = std::max(0.0, lambda[e] + step * g);
    }
    DGR_LOG_DEBUG("lagrangian round %d: overflow edges=%lld", round,
                  static_cast<long long>(over));
  }

  // Final primal repair: dual pricing routes every sub-net independently, so
  // a few sub-nets keep oscillating between equally-priced alternatives and
  // the kept primal solution can retain overflow. Like Yao's rounding stage,
  // reroute nets crossing overflowed edges against the *true* residual
  // demand, accepting only strict improvements.
  if (options_.repair_rounds > 0 && !best.nets.empty()) {
    grid::DemandMap dm(grid);
    for (const NetRoute& net : best.nets) {
      RouteSolution::apply_net(dm, design_, net, options_.via_beta, +1.0);
    }
    // Repair-round interactions can regress globally; keep the best snapshot.
    RouteSolution repaired_best = best;
    auto repaired_score = eval::reroute_score(best, dm, capacities_);
    for (int r = 0; r < options_.repair_rounds; ++r) {
      if (options_.deadline.expired()) {
        timed_out = true;
        break;
      }
      bool changed = false;
      for (NetRoute& net : best.nets) {
        // Checked against the live demand, so earlier reroutes this pass count.
        if (eval::net_overflow(net, dm, capacities_, grid) == 0.0) continue;

        RouteSolution::apply_net(dm, design_, net, options_.via_beta, -1.0);
        // (weighted marginal cost, # edges this net pushes over capacity) —
        // the edge count guard prevents smearing one heavy overflow across
        // many lightly overflowed edges.
        auto route_cost = [&](const std::vector<PatternPath>& paths) {
          double c = 0.0;
          std::int64_t over_edges = 0;
          grid::DemandMap mine(grid);
          for (const PatternPath& p : paths) {
            c += eval::kWirelengthWeight * static_cast<double>(p.length());
            for (const EdgeId e : p.edges(grid)) mine.add(e, 1.0);
          }
          for (EdgeId e = 0; e < grid.edge_count(); ++e) {
            const double w = mine.demand(e);
            if (w <= 0.0) continue;
            const double d = dm.demand(e);
            const double cap = capacities_[static_cast<std::size_t>(e)];
            c += eval::kOverflowWeight *
                 (std::max(0.0, d + w - cap) - std::max(0.0, d - cap));
            if (d + w > cap + 1e-6) ++over_edges;
          }
          return std::pair(c, over_edges);
        };
        std::vector<PatternPath> candidate;
        grid::DemandMap mine(grid);
        for (const PatternPath& p : net.paths) {
          auto price = [&](EdgeId e) {
            const double d = dm.demand(e) + mine.demand(e);
            const double cap = capacities_[static_cast<std::size_t>(e)];
            return 1.0 + kRepairCongestionPrice *
                             (std::max(0.0, d + 1.0 - cap) - std::max(0.0, d - cap));
          };
          const MazeResult mz =
              maze_route(grid, {p.waypoints.front()}, p.waypoints.back(), price);
          // On an unreachable target keep the existing leg: an empty
          // replacement would look "cheaper" and break the net.
          PatternPath q = mz.found ? compress_cells(mz.cells) : p;
          for (const EdgeId e : q.edges(grid)) mine.add(e, 1.0);
          candidate.push_back(std::move(q));
        }
        const auto [new_cost, new_edges] = route_cost(candidate);
        const auto [old_cost, old_edges] = route_cost(net.paths);
        if (new_cost < old_cost - 1e-9 && new_edges <= old_edges) {
          net.paths = std::move(candidate);
          changed = true;
        }
        RouteSolution::apply_net(dm, design_, net, options_.via_beta, +1.0);
      }
      const auto score = eval::reroute_score(best, dm, capacities_);
      if (score < repaired_score) {
        repaired_score = score;
        repaired_best = best;
      }
      if (!changed) break;
    }
    best = std::move(repaired_best);
  }

  if (stats != nullptr) {
    stats->rounds_run = round;
    stats->route_seconds = timer.seconds();
    stats->final_step = step;
    stats->timed_out = timed_out;
  }
  return best;
}

LagrangianRouter::LagrangianRouter(const design::Design& design,
                                   std::vector<float> capacities,
                                   LagrangianOptions options)
    : design_(design), capacities_(std::move(capacities)), options_(options) {}

}  // namespace dgr::routers
