#pragma once
// Lagrangian-relaxation global router, standing in for the pathfinding-model
// router of Yao et al. [DAC'23] as the other Table 3 comparator.
//
// The capacity constraints are dualised with per-edge multipliers λ_e >= 0:
// each round routes every 2-pin sub-net independently at minimum priced cost
// (wire + λ), then performs a projected subgradient step
//   λ_e <- max(0, λ_e + step * (d_e - cap_e))
// with a diminishing step size 1/sqrt(k). From round 1 on, a maze search
// under the same prices may replace a sub-net's L/Z path with a detour. The
// best primal solution seen (fewest overflowed edges, then wirelength) is
// kept.

#include "dag/path.hpp"
#include "design/design.hpp"
#include "eval/solution.hpp"
#include "rsmt/builder.hpp"
#include "util/deadline.hpp"

namespace dgr::routers {

struct LagrangianOptions {
  int rounds = 30;            ///< subgradient iterations
  int repair_rounds = 8;      ///< final primal repair passes (see route())
  float via_beta = 0.5f;      ///< via demand charge for the shared metric
  dag::PathEnumOptions paths;
  /// Polled before every subgradient round after the first and before every
  /// repair pass; round 0 always completes so the returned solution is
  /// whole. On expiry `timed_out` is set and the best solution is returned.
  util::Deadline deadline;
};

struct LagrangianStats {
  int rounds_run = 0;
  double route_seconds = 0.0;
  double final_step = 0.0;
  bool timed_out = false;  ///< rounds or repair stopped early on the deadline
};

class LagrangianRouter {
 public:
  LagrangianRouter(const design::Design& design, std::vector<float> capacities,
                   LagrangianOptions options = {});

  eval::RouteSolution route(LagrangianStats* stats = nullptr);

 private:
  const design::Design& design_;
  std::vector<float> capacities_;
  LagrangianOptions options_;
};

}  // namespace dgr::routers
