#pragma once
// Maze-routing refinement (Section 4.6): after pattern routing, nets that
// cross overflowed g-cell edges are ripped up and rerouted with a
// congestion-priced maze search; a reroute is kept only if it improves the
// weighted (overflow, wirelength, via) cost, so refinement is monotone.

#include "eval/solution.hpp"

namespace dgr::post {

struct MazeRefineOptions {
  int max_rounds = 3;
  float via_beta = 0.5f;          ///< via demand model (matches optimisation)
};

struct MazeRefineStats {
  int rounds_run = 0;
  /// Rounds whose result the returned routes keep: the best round, or 0
  /// when refine returns its input.
  int rounds_kept = 0;
  std::int64_t nets_rerouted = 0;
  /// Accepted moves, counting those in rounds the best snapshot discards.
  std::int64_t nets_improved = 0;
  /// Nets whose returned route differs from the input's.
  std::int64_t nets_kept = 0;
  double overflow_before = 0.0;
  double overflow_after = 0.0;
};

/// Refines `sol` in place. Returns stats; guarantees the weighted cost never
/// increases and the solution stays pin-connected.
MazeRefineStats maze_refine(eval::RouteSolution& sol,
                            const std::vector<float>& capacities,
                            const MazeRefineOptions& options = {});

/// Reroutes one net from scratch with congestion-priced maze search against
/// `others` (the demand map *excluding* the net itself). Shared by the
/// refinement rounds above and the pipeline's validation-gate repair of
/// broken nets. Returns a route with empty paths when a pin is unreachable
/// (callers must treat that as "net still broken", never commit it).
eval::NetRoute maze_reroute_net(const design::Design& design, std::size_t design_net,
                                const grid::DemandMap& others,
                                const std::vector<float>& capacities);

}  // namespace dgr::post
