#pragma once
// Dense two-phase primal simplex for linear programs in the form
//   min c^T x   s.t.  A x {<=,=,>=} b,  x >= 0.
//
// This is the LP engine under the branch-and-bound MILP solver that stands
// in for the paper's CVXPY/ILP baseline (Table 1). Dense tableau with
// Dantzig pricing and a Bland's-rule fallback for anti-cycling; sized for
// the small synthetic instances exact comparison needs.

#include <cstdint>
#include <vector>

namespace dgr::ilp {

enum class Rel { kLe, kEq, kGe };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  ///< (var index, coefficient)
  Rel rel = Rel::kLe;
  double rhs = 0.0;
};

struct LinearProgram {
  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars; minimised
  std::vector<LpConstraint> constraints;

  /// Adds a variable with the given objective coefficient; returns its index.
  int add_var(double cost) {
    objective.push_back(cost);
    return num_vars++;
  }
  void add_constraint(std::vector<std::pair<int, double>> terms, Rel rel, double rhs) {
    constraints.push_back({std::move(terms), rel, rhs});
  }
};

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;
};

/// `deadline_seconds` is a wall-clock budget for this solve; on expiry the
/// solver returns kIterLimit (used by branch-and-bound to honour its own
/// time limit even when a single LP is large). <= 0 means no deadline.
LpResult solve_lp(const LinearProgram& lp, std::int64_t max_pivots = 200000,
                  double deadline_seconds = 0.0);

}  // namespace dgr::ilp
