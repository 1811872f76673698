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

NetCost net_cost(const design::Design& design, const NetRoute& net, const DemandMap& others,
                 const std::vector<float>& cap, const MazeRefineOptions& opt,
                 double via_scale) {
  DemandMap mine(design.grid());
  RouteSolution::apply_net(mine, design, net, opt.via_beta, +1.0);
  NetCost out;
  double over = 0.0;
  std::int64_t wl = 0;
  std::int64_t bends = 0;
  for (std::size_t e = 0; e < mine.raw().size(); ++e) {
    const double w = mine.raw()[e];
    if (w <= 0.0) continue;
    const double base = others.raw()[e];
    const double c = cap[e];
    over += std::max(0.0, base + w - c) - std::max(0.0, base - c);
    if (base + w > c + 1e-6) ++out.overflowed_edges;
  }
  for (const dag::PatternPath& p : net.paths) {
    wl += p.length();
    bends += static_cast<std::int64_t>(p.bend_count());
  }
  out.weighted = opt.overflow_weight * over + opt.wl_weight * static_cast<double>(wl) +
                 opt.via_weight * via_scale * static_cast<double>(bends);
  return out;
}

}  // namespace

NetRoute maze_reroute_net(const design::Design& design, std::size_t design_net,
                          const DemandMap& others, const std::vector<float>& cap,
                          const MazeRefineOptions& opt) {
  const auto& grid = design.grid();
  // Track this net's own usage so parallel sub-nets share edges for free.
  DemandMap mine(grid);
  auto price = [&](EdgeId e) {
    const double d = others.raw()[static_cast<std::size_t>(e)] +
                     mine.raw()[static_cast<std::size_t>(e)];
    const double c = cap[static_cast<std::size_t>(e)];
    const double marginal = std::max(0.0, d + 1.0 - c) - std::max(0.0, d - c);
    return opt.wl_weight + opt.congestion_price * marginal;
  };
  routers::MazeConnection mc = routers::maze_connect(
      grid, design.net(design_net).pins, price, [&](const dag::PatternPath& path) {
        for (const EdgeId e : path.edges(grid)) mine.add(e, 1.0);
      });
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

  // Per-net acceptance is marginal and accepted moves interact, so rounds
  // can still regress globally; keep the best snapshot — the initial
  // solution included, which makes refinement monotone by construction.
  RouteSolution best = sol;
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
          net_cost(design, sol.nets[i], demand, capacities, options, via_scale);
      NetRoute candidate =
          maze_reroute_net(design, sol.nets[i].design_net, demand, capacities, options);
      const NetCost new_cost =
          net_cost(design, candidate, demand, capacities, options, via_scale);
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
    }
    if (!improved_any) break;
  }

  sol = std::move(best);
  demand = sol.demand(options.via_beta);
  stats.overflow_after = demand.total_overflow(capacities);
  return stats;
}

}  // namespace dgr::post
