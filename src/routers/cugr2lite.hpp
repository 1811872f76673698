#pragma once
// CUGR2-lite: a sequential DAG-based pattern router with rip-up-and-reroute,
// standing in for CUGR2 [Liu & Young, DAC'23] as the Table 2 / Fig. 5
// comparator. Same algorithmic family as the original:
//   - FLUTE-equivalent RSMT per net, split into 2-pin sub-nets,
//   - per-sub-net DP over L-/Z-shape pattern candidates against a live
//     demand map with a logistic congestion cost,
//   - nets through overflowed edges are ripped and rerouted each round,
//     with maze routing as the escape hatch in late rounds.
// Being sequential, it optimises one net at a time — exactly the local-view
// weakness DGR's concurrent optimisation addresses.

#include "dag/path.hpp"
#include "design/design.hpp"
#include "eval/solution.hpp"
#include "rsmt/builder.hpp"
#include "util/deadline.hpp"

namespace dgr::routers {

struct Cugr2LiteOptions {
  int rrr_rounds = 5;            ///< rip-up & reroute iterations
  float via_beta = 0.5f;         ///< via demand charge (matches Eq. 2)
  dag::PathEnumOptions paths;    ///< L-only by default, Z optional
  bool maze_fallback = true;     ///< maze-reroute stubborn nets in last rounds
  /// Polled between RRR rounds; the initial pass always completes so the
  /// returned solution is whole. On expiry `timed_out` is set and the best
  /// snapshot is returned.
  util::Deadline deadline;
};

struct Cugr2LiteStats {
  int rounds_run = 0;
  std::int64_t nets_rerouted = 0;
  double route_seconds = 0.0;
  bool timed_out = false;  ///< RRR stopped early on the deadline
};

class Cugr2Lite {
 public:
  Cugr2Lite(const design::Design& design, std::vector<float> capacities,
            Cugr2LiteOptions options = {});

  /// Routes every routable net. When `warm_start` is a solution of the same
  /// design, its routes seed the initial state (nets it misses are routed
  /// cold) and the run proceeds straight to rip-up-and-reroute — the
  /// pipeline-level RRR re-entry hook.
  eval::RouteSolution route(Cugr2LiteStats* stats = nullptr,
                            const eval::RouteSolution* warm_start = nullptr);

 private:
  /// Routes one net's sub-nets against the current demand; returns the route.
  eval::NetRoute route_net(std::size_t design_net, bool allow_maze);

  /// Cost of pushing one more unit of wire across edge e.
  double edge_cost(grid::EdgeId e) const;

  const design::Design& design_;
  std::vector<float> capacities_;
  Cugr2LiteOptions options_;
  rsmt::RsmtBuilder builder_;
  grid::DemandMap demand_;
  double via_cost_scale_ = 1.0;
};

}  // namespace dgr::routers
