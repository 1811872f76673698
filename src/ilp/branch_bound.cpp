#include "ilp/branch_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "util/timer.hpp"

namespace dgr::ilp {
namespace {

constexpr std::int64_t kMaxNodes = 200000;
constexpr std::int64_t kLpPivotLimit = 200000;
/// Distance from an integer below which a value counts as integral.
constexpr double kIntegralityTol = 1e-6;

struct Node {
  double bound = 0.0;  ///< parent LP objective (lower bound for minimisation)
  // Extra bound constraints accumulated down the branch: (var, floor?, value).
  std::vector<LpConstraint> extra;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound;  // best-bound first
  }
};

int most_fractional(const std::vector<double>& x, const std::vector<int>& integer_vars) {
  int best = -1;
  double best_dist = kIntegralityTol;
  for (const int v : integer_vars) {
    const double val = x[static_cast<std::size_t>(v)];
    const double frac = val - std::floor(val);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

}  // namespace

MilpResult solve_milp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                      const MilpOptions& options) {
  MilpResult result;
  util::Timer timer;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>, NodeOrder>
      open;
  open.push(std::make_shared<Node>());

  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;
  bool root_infeasible = false;
  bool exhausted = true;

  while (!open.empty()) {
    if (timer.seconds() > options.time_limit_seconds ||
        result.nodes_explored >= kMaxNodes) {
      result.timed_out = true;
      exhausted = false;
      break;
    }
    const std::shared_ptr<Node> node = open.top();
    open.pop();
    if (node->bound >= incumbent - 1e-9) continue;  // pruned by bound
    ++result.nodes_explored;

    LinearProgram sub = lp;
    for (const LpConstraint& c : node->extra) sub.constraints.push_back(c);
    const double remaining = options.time_limit_seconds - timer.seconds();
    const LpResult rel = solve_lp(sub, kLpPivotLimit, std::max(0.05, remaining));
    if (rel.status == LpStatus::kInfeasible) {
      if (result.nodes_explored == 1) root_infeasible = true;
      continue;
    }
    if (rel.status == LpStatus::kUnbounded) {
      result.status = LpStatus::kUnbounded;
      return result;
    }
    if (rel.status == LpStatus::kIterLimit) {
      // Cannot bound this subtree; treat conservatively as unexplored.
      exhausted = false;
      continue;
    }
    if (rel.objective >= incumbent - 1e-9) continue;

    const int branch_var = most_fractional(rel.x, integer_vars);
    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent = rel.objective;
      incumbent_x = rel.x;
      continue;
    }

    const double val = rel.x[static_cast<std::size_t>(branch_var)];
    auto down = std::make_shared<Node>();
    down->bound = rel.objective;
    down->extra = node->extra;
    down->extra.push_back({{{branch_var, 1.0}}, Rel::kLe, std::floor(val)});
    auto up = std::make_shared<Node>();
    up->bound = rel.objective;
    up->extra = node->extra;
    up->extra.push_back({{{branch_var, 1.0}}, Rel::kGe, std::ceil(val)});
    open.push(std::move(down));
    open.push(std::move(up));
  }

  result.has_incumbent = std::isfinite(incumbent);
  if (result.has_incumbent) {
    result.objective = incumbent;
    result.x = std::move(incumbent_x);
    result.status = exhausted ? LpStatus::kOptimal : LpStatus::kIterLimit;
  } else {
    result.status = root_infeasible && exhausted ? LpStatus::kInfeasible
                                                 : LpStatus::kIterLimit;
  }
  // Remaining open nodes bound the optimum from below.
  result.best_bound = open.empty() ? (result.has_incumbent ? incumbent : 0.0)
                                   : open.top()->bound;
  return result;
}

}  // namespace dgr::ilp
