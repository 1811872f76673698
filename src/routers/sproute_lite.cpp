#include "routers/sproute_lite.hpp"

#include <algorithm>

#include "eval/metrics.hpp"
#include "routers/maze.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::routers {

using eval::RouteSolution;
using grid::EdgeId;

namespace {

constexpr double kPresentFactor = 8.0;  ///< penalty per unit of present overuse
constexpr double kHistoryStep = 1.0;    ///< history increment on overflowed edges
constexpr double kHistoryFactor = 2.0;  ///< history multiplier in the cost
constexpr double kSoftCapacity = 0.9;   ///< fraction of cap where cost starts rising

}  // namespace

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
  // Soft capacity: overuse is measured against kSoftCapacity * cap, so the
  // router starts avoiding an edge before it is actually full.
  const double soft_cap = kSoftCapacity * cap;
  const double overuse = std::max(0.0, d + 1.0 - soft_cap);
  const double present = kPresentFactor * overuse;
  const double hist = kHistoryFactor * history_[static_cast<std::size_t>(e)];
  return 1.0 + present * (1.0 + hist);
}

RouteSolution SpRouteLite::route(SpRouteLiteStats* stats, const RouteSolution* warm_start) {
  util::Timer timer;
  demand_.clear();
  std::fill(history_.begin(), history_.end(), 0.0);

  RouteSolution sol;
  sol.design = &design_;
  const auto& routable = design_.routable_nets();
  sol.nets.resize(routable.size());
  // Warm start: negotiation then rips up only what still overflows.
  const std::vector<char> seeded = sol.seed_from(warm_start, demand_, options_.via_beta);

  // Routes slot i against the live demand and commits it.
  std::int64_t reroutes = 0;
  auto route_net = [&](std::size_t i) {
    MazeConnection mc = maze_connect(design_.grid(), design_.net(routable[i]).pins,
                                     [this](EdgeId e) { return edge_cost(e); });
    // An unreachable pin leaves the net empty; the validation gate repairs it.
    if (!mc.status.ok()) {
      DGR_LOG_WARN("sproute_lite net %zu: %s", routable[i], mc.status.to_string().c_str());
    }
    sol.nets[i] = {routable[i], std::move(mc.paths)};
    RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
    ++reroutes;
  };
  for (std::size_t i = 0; i < routable.size(); ++i) {
    if (!seeded[i]) route_net(i);
  }

  // Negotiation is not monotone round-to-round; keep the best snapshot.
  RouteSolution best = sol;
  auto best_score = eval::reroute_score(sol, demand_, capacities_);

  bool timed_out = false;
  int round = 0;
  for (; round < options_.max_rounds; ++round) {
    if (options_.deadline.expired()) {
      timed_out = true;
      break;
    }
    // Negotiation: bump history on overflowed edges, then reroute the nets
    // crossing them.
    bool any = false;
    for (std::size_t e = 0; e < history_.size(); ++e) {
      if (demand_.demand(static_cast<EdgeId>(e)) > capacities_[e] + 1e-6) {
        history_[e] += kHistoryStep;
        any = true;
      }
    }
    if (!any) break;

    for (const eval::OverflowedNet& victim :
         eval::overflowed_nets(sol, demand_, capacities_)) {
      const std::size_t i = victim.slot;
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, -1.0);
      route_net(i);
    }
    DGR_LOG_DEBUG("sproute_lite round %d done", round);
    const auto s = eval::reroute_score(sol, demand_, capacities_);
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
