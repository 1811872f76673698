#pragma once
// SPRoute-lite: a PathFinder-style negotiation-based maze router with soft
// capacity, standing in for SPRoute 2.0 [He et al., ASP-DAC'22] as a
// Table 3 comparator.
//
// Each net is routed pin-by-pin with multi-source Dijkstra (the grown
// component is the source set), under the classic negotiated-congestion
// cost: base + present-overuse penalty scaled by accumulated edge history.
// Soft capacity makes edges expensive *before* they saturate, which is the
// detailed-routability device SPRoute 2.0 adds over plain PathFinder.

#include "design/design.hpp"
#include "eval/solution.hpp"
#include "util/deadline.hpp"

namespace dgr::routers {

struct SpRouteLiteOptions {
  int max_rounds = 8;           ///< negotiation iterations
  float via_beta = 0.5f;        ///< via demand charge for the shared metric
  double present_factor = 8.0;  ///< penalty per unit of present overuse
  double history_step = 1.0;    ///< history increment on overflowed edges
  double history_factor = 2.0;  ///< history multiplier in the cost
  double soft_capacity = 0.9;   ///< fraction of cap where cost starts rising
  /// Polled between negotiation rounds; the initial pass always completes
  /// so the returned solution is whole. On expiry `timed_out` is set.
  util::Deadline deadline;
};

struct SpRouteLiteStats {
  int rounds_run = 0;
  std::int64_t reroutes = 0;
  double route_seconds = 0.0;
  bool timed_out = false;  ///< negotiation stopped early on the deadline
};

class SpRouteLite {
 public:
  SpRouteLite(const design::Design& design, std::vector<float> capacities,
              SpRouteLiteOptions options = {});

  /// Routes every routable net. When `warm_start` is a solution of the same
  /// design, its routes seed the initial state (nets it misses are routed
  /// cold) and negotiation resumes from there — the pipeline-level
  /// rip-up-and-reroute re-entry hook.
  eval::RouteSolution route(SpRouteLiteStats* stats = nullptr,
                            const eval::RouteSolution* warm_start = nullptr);

 private:
  double edge_cost(grid::EdgeId e) const;

  const design::Design& design_;
  std::vector<float> capacities_;
  SpRouteLiteOptions options_;
  grid::DemandMap demand_;
  std::vector<double> history_;
};

}  // namespace dgr::routers
