#include "post/maze_refine.hpp"

#include <algorithm>
#include <cmath>

#include "eval/metrics.hpp"
#include "obs/trace.hpp"
#include "routers/maze.hpp"
#include "util/log.hpp"

namespace dgr::post {

using eval::NetRoute;
using eval::RouteSolution;
using grid::DemandMap;
using grid::EdgeId;

namespace {

/// Maze edge price per unit of overuse. It equals eval::kOverflowWeight only
/// by choice: it steers the search, it does not score routes.
constexpr double kCongestionPrice = 500.0;

/// Marginal cost of one net's route against a demand map that *excludes*
/// the net itself: weighted (overflow, wl, via) cost plus the number of
/// edges this net pushes over capacity. Tracking the edge count separately
/// keeps refinement from "improving" total overflow by smearing one heavy
/// overflow across many lightly-overflowed edges (Tables 2/3 report the
/// edge count, and detailed routers care about it too).
struct NetCost {
  double weighted = 0.0;
  std::int64_t overflowed_edges = 0;
};

/// Reused by every net_cost call of one maze_refine: a demand map that is
/// all zero between calls, and the edges of the net being costed.
struct NetScratch {
  explicit NetScratch(const grid::GCellGrid& grid) : mine(grid) {}
  DemandMap mine;
  std::vector<EdgeId> edges;
};

NetCost net_cost(const design::Design& design, const NetRoute& net, const DemandMap& others,
                 const std::vector<float>& cap, const MazeRefineOptions& opt,
                 double via_scale, NetScratch& scratch) {
  RouteSolution::apply_net(scratch.mine, design, net, opt.via_beta, +1.0);
  // Via charges land on the paths' own edges, so these are all the edges
  // the net charged. Ascending order adds `over` in the order a scan of the
  // whole grid would.
  scratch.edges.clear();
  for (const dag::PatternPath& p : net.paths) {
    const std::vector<EdgeId> path_edges = p.edges(design.grid());
    scratch.edges.insert(scratch.edges.end(), path_edges.begin(), path_edges.end());
  }
  std::sort(scratch.edges.begin(), scratch.edges.end());
  scratch.edges.erase(std::unique(scratch.edges.begin(), scratch.edges.end()),
                      scratch.edges.end());
  NetCost out;
  double over = 0.0;
  std::int64_t wl = 0;
  std::int64_t bends = 0;
  for (const EdgeId edge : scratch.edges) {
    const auto e = static_cast<std::size_t>(edge);
    const double w = scratch.mine.raw()[e];
    const double base = others.raw()[e];
    const double c = cap[e];
    over += std::max(0.0, base + w - c) - std::max(0.0, base - c);
    if (base + w > c + 1e-6) ++out.overflowed_edges;
  }
  scratch.mine.clear(scratch.edges);
  for (const dag::PatternPath& p : net.paths) {
    wl += p.length();
    bends += static_cast<std::int64_t>(p.bend_count());
  }
  out.weighted = eval::kOverflowWeight * over +
                 eval::kWirelengthWeight * static_cast<double>(wl) +
                 eval::kViaWeight * via_scale * static_cast<double>(bends);
  return out;
}

}  // namespace

NetRoute maze_reroute_net(const design::Design& design, std::size_t design_net,
                          const DemandMap& others, const std::vector<float>& cap) {
  const auto& grid = design.grid();
  // Track this net's own usage so parallel sub-nets share edges for free.
  routers::EdgeUsage& mine = routers::MazeWorkspace::local().usage();
  mine.reset(grid);
  auto price = [&](EdgeId e) {
    const double d = others.raw()[static_cast<std::size_t>(e)] + mine[e];
    const double c = cap[static_cast<std::size_t>(e)];
    const double marginal = std::max(0.0, d + 1.0 - c) - std::max(0.0, d - c);
    return eval::kWirelengthWeight + kCongestionPrice * marginal;
  };
  routers::MazeConnection mc = routers::maze_connect(
      grid, design.net(design_net).pins, price,
      [&](const dag::PatternPath& path) { mine.add(grid, path); });
  // Unreachable pin (pathological pricing): the empty route tells the
  // caller to reject it instead of committing broken geometry.
  if (!mc.status.ok()) {
    DGR_LOG_WARN("maze_reroute_net net %zu: %s", design_net, mc.status.to_string().c_str());
  }
  return {design_net, std::move(mc.paths)};
}

MazeRefineStats maze_refine(RouteSolution& sol, const std::vector<float>& capacities,
                            const MazeRefineOptions& options) {
  DGR_TRACE_SCOPE("post.maze_refine");
  MazeRefineStats stats;
  const design::Design& design = *sol.design;
  const double via_scale = std::sqrt(static_cast<double>(design.grid().layer_count()));

  DemandMap demand = sol.demand(options.via_beta);
  stats.overflow_before = demand.total_overflow(capacities);
  NetScratch scratch(design.grid());

  // Per-net acceptance is marginal and accepted moves interact, so rounds
  // can still regress globally; keep the best snapshot — the initial
  // solution included, which makes refinement monotone by construction.
  RouteSolution input = sol;
  RouteSolution best;
  auto best_score = eval::reroute_score(sol, demand, capacities);

  for (int round = 0; round < options.max_rounds; ++round) {
    // Nets crossing overflowed edges, most-overflowed first.
    std::vector<eval::OverflowedNet> victims =
        eval::overflowed_nets(sol, demand, capacities);
    if (victims.empty()) break;
    std::stable_sort(victims.begin(), victims.end(),
                     [](const auto& a, const auto& b) { return a.worst > b.worst; });

    bool improved_any = false;
    for (const eval::OverflowedNet& victim : victims) {
      const std::size_t i = victim.slot;
      RouteSolution::apply_net(demand, design, sol.nets[i], options.via_beta, -1.0);
      const NetCost old_cost =
          net_cost(design, sol.nets[i], demand, capacities, options, via_scale, scratch);
      NetRoute candidate =
          maze_reroute_net(design, sol.nets[i].design_net, demand, capacities);
      const NetCost new_cost =
          net_cost(design, candidate, demand, capacities, options, via_scale, scratch);
      ++stats.nets_rerouted;
      // Accept only complete reroutes that strictly improve without adding
      // overflowed edges (an empty candidate = unreachable pin, rejected).
      if (!candidate.paths.empty() && new_cost.weighted < old_cost.weighted - 1e-9 &&
          new_cost.overflowed_edges <= old_cost.overflowed_edges) {
        sol.nets[i] = std::move(candidate);
        ++stats.nets_improved;
        improved_any = true;
      }
      RouteSolution::apply_net(demand, design, sol.nets[i], options.via_beta, +1.0);
    }
    stats.rounds_run = round + 1;
    const auto score = eval::reroute_score(sol, demand, capacities);
    if (score < best_score) {
      best_score = score;
      best = sol;
      stats.rounds_kept = round + 1;
    }
    if (!improved_any) break;
  }

  if (stats.rounds_kept == 0) {
    sol = std::move(input);
  } else {
    sol = std::move(best);
    for (std::size_t i = 0; i < sol.nets.size(); ++i) {
      if (sol.nets[i].paths != input.nets[i].paths) ++stats.nets_kept;
    }
  }
  demand = sol.demand(options.via_beta);
  stats.overflow_after = demand.total_overflow(capacities);
  return stats;
}

}  // namespace dgr::post
