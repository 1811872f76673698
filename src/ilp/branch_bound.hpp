#pragma once
// Best-bound branch-and-bound MILP solver on top of the simplex LP engine.
//
// Exact (given enough time) on mixed problems where a subset of variables is
// integral; used as the Table 1 oracle. A wall-clock limit reproduces the
// paper's "N/A: ILP running out of time" rows.

#include <cstdint>
#include <vector>

#include "ilp/simplex.hpp"

namespace dgr::ilp {

/// Besides the time limit, the search stops (timed_out) after 200,000 nodes.
struct MilpOptions {
  double time_limit_seconds = 60.0;
};

struct MilpResult {
  LpStatus status = LpStatus::kIterLimit;  ///< kOptimal only if proven optimal
  bool timed_out = false;
  double objective = 0.0;
  std::vector<double> x;     ///< incumbent (valid when has_incumbent)
  bool has_incumbent = false;
  std::int64_t nodes_explored = 0;
  double best_bound = 0.0;   ///< proven lower bound on the optimum
};

/// Minimises lp over x >= 0 with the listed variables restricted to integers.
MilpResult solve_milp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                      const MilpOptions& options = {});

}  // namespace dgr::ilp
