#include "eval/metrics.hpp"

#include <algorithm>

namespace dgr::eval {

Metrics compute_metrics(const RouteSolution& sol, const std::vector<float>& capacities,
                        float via_beta) {
  Metrics m;
  const grid::DemandMap dm = sol.demand(via_beta);
  m.overflow_edges = dm.overflowed_edge_count(capacities);
  m.total_overflow = dm.total_overflow(capacities);
  m.peak_overflow = dm.peak_overflow(capacities);
  m.wirelength = sol.total_wirelength();
  m.bends = sol.total_bends();
  return m;
}

std::int64_t nets_with_overflow(const RouteSolution& sol,
                                const std::vector<float>& capacities, float via_beta) {
  return static_cast<std::int64_t>(
      overflowed_nets(sol, sol.demand(via_beta), capacities).size());
}

double net_overflow(const NetRoute& net, const grid::DemandMap& dm,
                    const std::vector<float>& capacities, const grid::GCellGrid& grid) {
  double worst = 0.0;
  for (const dag::PatternPath& path : net.paths) {
    for (const grid::EdgeId e : path.edges(grid)) {
      worst = std::max(worst, dm.demand(e) - static_cast<double>(
                                                 capacities[static_cast<std::size_t>(e)]));
    }
  }
  return worst > 1e-6 ? worst : 0.0;
}

std::vector<OverflowedNet> overflowed_nets(const RouteSolution& sol,
                                           const grid::DemandMap& dm,
                                           const std::vector<float>& capacities) {
  std::vector<OverflowedNet> out;
  for (std::size_t i = 0; i < sol.nets.size(); ++i) {
    const double worst = net_overflow(sol.nets[i], dm, capacities, sol.design->grid());
    if (worst > 0.0) out.push_back({i, worst});
  }
  return out;
}

RerouteScore reroute_score(const RouteSolution& sol, const grid::DemandMap& dm,
                           const std::vector<float>& capacities) {
  return {dm.overflowed_edge_count(capacities), dm.total_overflow(capacities),
          sol.total_wirelength()};
}

double weighted_overflow(const RouteSolution& sol, const std::vector<float>& capacities,
                         float via_beta) {
  const Metrics m = compute_metrics(sol, capacities, via_beta);
  const std::int64_t n1 = nets_with_overflow(sol, capacities, via_beta);
  return 10.0 * static_cast<double>(n1) + 1000.0 * static_cast<double>(m.overflow_edges) +
         10000.0 * m.peak_overflow;
}

}  // namespace dgr::eval
