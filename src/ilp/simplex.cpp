#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/timer.hpp"

namespace dgr::ilp {
namespace {

constexpr double kEps = 1e-9;

// Dense tableau:
//   rows 0..m-1 : constraints (columns: structural | slack/surplus |
//                 artificial | rhs)
//   row  m      : phase objective (reduced costs; rhs = -objective value)
class Tableau {
 public:
  Tableau(const LinearProgram& lp) : n_(lp.num_vars) {
    const std::size_t m = lp.constraints.size();
    // Count auxiliary columns.
    std::size_t slacks = 0, artificials = 0;
    for (const LpConstraint& c : lp.constraints) {
      const bool flip = c.rhs < 0.0;
      const Rel rel = flip ? flipped(c.rel) : c.rel;
      if (rel == Rel::kLe) ++slacks;
      if (rel == Rel::kGe) {
        ++slacks;  // surplus
        ++artificials;
      }
      if (rel == Rel::kEq) ++artificials;
    }
    slack_begin_ = n_;
    art_begin_ = n_ + static_cast<int>(slacks);
    cols_ = art_begin_ + static_cast<int>(artificials);
    rows_ = static_cast<int>(m);
    a_.assign(static_cast<std::size_t>(rows_ + 1) * (cols_ + 1), 0.0);
    basis_.assign(static_cast<std::size_t>(rows_), -1);

    int next_slack = slack_begin_;
    int next_art = art_begin_;
    for (int r = 0; r < rows_; ++r) {
      const LpConstraint& c = lp.constraints[static_cast<std::size_t>(r)];
      const bool flip = c.rhs < 0.0;
      const double sign = flip ? -1.0 : 1.0;
      const Rel rel = flip ? flipped(c.rel) : c.rel;
      for (const auto& [v, coef] : c.terms) {
        if (v < 0 || v >= n_) throw std::invalid_argument("simplex: bad var index");
        at(r, v) += sign * coef;
      }
      rhs(r) = sign * c.rhs;
      switch (rel) {
        case Rel::kLe:
          at(r, next_slack) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_slack++;
          break;
        case Rel::kGe:
          at(r, next_slack++) = -1.0;
          at(r, next_art) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
        case Rel::kEq:
          at(r, next_art) = 1.0;
          basis_[static_cast<std::size_t>(r)] = next_art++;
          break;
      }
    }
  }

  /// Phase 1: minimise the sum of artificial variables.
  LpStatus phase1(std::int64_t& pivot_budget) {
    if (art_begin_ == cols_) return LpStatus::kOptimal;  // no artificials
    // Phase-1 cost: 1 per artificial, 0 otherwise; price out the (artificial)
    // basics by subtracting their rows. Artificial columns then carry
    // reduced cost 1 - 1 = 0, structural columns -Σ a_rc.
    std::fill(obj_row(), obj_row() + cols_ + 1, 0.0);
    for (int c = art_begin_; c < cols_; ++c) obj(c) = 1.0;
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= art_begin_) {
        for (int c = 0; c <= cols_; ++c) obj(c) -= at(r, c);
      }
    }
    const LpStatus st = iterate(pivot_budget, /*forbid_artificials=*/false);
    if (st != LpStatus::kOptimal) return st;
    if (-obj(cols_) > 1e-7) return LpStatus::kInfeasible;  // Σ artificials > 0
    drive_out_artificials();
    return LpStatus::kOptimal;
  }

  /// Phase 2: minimise the real objective.
  LpStatus phase2(const std::vector<double>& cost, std::int64_t& pivot_budget) {
    std::fill(obj_row(), obj_row() + cols_ + 1, 0.0);
    for (int v = 0; v < n_; ++v) obj(v) = cost[static_cast<std::size_t>(v)];
    // Price out the basic variables.
    for (int r = 0; r < rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      const double cb = (b < n_) ? cost[static_cast<std::size_t>(b)] : 0.0;
      if (cb != 0.0) {
        for (int c = 0; c <= cols_; ++c) obj(c) -= cb * at(r, c);
      }
    }
    return iterate(pivot_budget, /*forbid_artificials=*/true);
  }

  std::vector<double> extract_x() const {
    std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b >= 0 && b < n_) x[static_cast<std::size_t>(b)] = rhs_const(r);
    }
    return x;
  }

  double objective_value(const std::vector<double>& cost) const {
    const std::vector<double> x = extract_x();
    double z = 0.0;
    for (int v = 0; v < n_; ++v) z += cost[static_cast<std::size_t>(v)] * x[static_cast<std::size_t>(v)];
    return z;
  }

 private:
  static Rel flipped(Rel r) {
    return r == Rel::kLe ? Rel::kGe : (r == Rel::kGe ? Rel::kLe : Rel::kEq);
  }

  double& at(int r, int c) { return a_[static_cast<std::size_t>(r) * (cols_ + 1) + c]; }
  double at_const(int r, int c) const {
    return a_[static_cast<std::size_t>(r) * (cols_ + 1) + c];
  }
  double& rhs(int r) { return at(r, cols_); }
  double rhs_const(int r) const { return at_const(r, cols_); }
  double* obj_row() { return &a_[static_cast<std::size_t>(rows_) * (cols_ + 1)]; }
  double& obj(int c) { return obj_row()[c]; }

  void pivot(int pr, int pc) {
    const double pv = at(pr, pc);
    const double inv = 1.0 / pv;
    for (int c = 0; c <= cols_; ++c) at(pr, c) *= inv;
    at(pr, pc) = 1.0;
    for (int r = 0; r <= rows_; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (std::abs(factor) < kEps) continue;
      for (int c = 0; c <= cols_; ++c) at(r, c) -= factor * at(pr, c);
      at(r, pc) = 0.0;
    }
    basis_[static_cast<std::size_t>(pr)] = pc;
  }

  LpStatus iterate(std::int64_t& pivot_budget, bool forbid_artificials) {
    const int limit_col = forbid_artificials ? art_begin_ : cols_;
    std::int64_t since_progress = 0;
    std::int64_t pivots_done = 0;
    for (;;) {
      if (pivot_budget-- <= 0) return LpStatus::kIterLimit;
      // Deadline check every 32 pivots (a pivot is O(rows*cols), so this is
      // cheap relative to the work it bounds).
      if (deadline_ != nullptr && (pivots_done++ & 31) == 0 &&
          deadline_->seconds() > deadline_limit_) {
        return LpStatus::kIterLimit;
      }
      // Entering column: Dantzig (most negative reduced cost); switch to
      // Bland (lowest index with negative cost) when cycling is suspected.
      const bool bland = since_progress > 2 * (rows_ + cols_);
      int pc = -1;
      double best = -kEps;
      for (int c = 0; c < limit_col; ++c) {
        const double rc = obj(c);
        if (rc < -kEps) {
          if (bland) {
            pc = c;
            break;
          }
          if (rc < best) {
            best = rc;
            pc = c;
          }
        }
      }
      if (pc < 0) return LpStatus::kOptimal;

      // Ratio test (Bland ties on lowest basis index).
      int pr = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int r = 0; r < rows_; ++r) {
        const double col = at(r, pc);
        if (col > kEps) {
          const double ratio = rhs(r) / col;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && pr >= 0 &&
               basis_[static_cast<std::size_t>(r)] < basis_[static_cast<std::size_t>(pr)])) {
            best_ratio = ratio;
            pr = r;
          }
        }
      }
      if (pr < 0) return LpStatus::kUnbounded;
      const double before = obj(cols_);
      pivot(pr, pc);
      since_progress = std::abs(obj(cols_) - before) > kEps ? 0 : since_progress + 1;
    }
  }

  /// After phase 1, pivot basic artificials (value 0) out of the basis.
  void drive_out_artificials() {
    for (int r = 0; r < rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < art_begin_) continue;
      int pc = -1;
      for (int c = 0; c < art_begin_; ++c) {
        if (std::abs(at(r, c)) > 1e-7) {
          pc = c;
          break;
        }
      }
      if (pc >= 0) {
        pivot(r, pc);
      }
      // Rows with no eligible column are redundant (all-zero); the basic
      // artificial stays at value 0 and is excluded from pricing in phase 2.
    }
  }

  // Optional wall-clock deadline shared by both phases.
 public:
  void set_deadline(const util::Timer* timer, double limit) {
    deadline_ = timer;
    deadline_limit_ = limit;
  }

 private:
  const util::Timer* deadline_ = nullptr;
  double deadline_limit_ = 0.0;

  int n_;            ///< structural variables
  int slack_begin_;  ///< first slack column
  int art_begin_;    ///< first artificial column
  int cols_;         ///< total columns (excl. rhs)
  int rows_;
  std::vector<double> a_;  ///< (rows_+1) x (cols_+1), last row = objective
  std::vector<int> basis_;
};

}  // namespace

LpResult solve_lp(const LinearProgram& lp, std::int64_t max_pivots,
                  double deadline_seconds) {
  if (static_cast<int>(lp.objective.size()) != lp.num_vars) {
    throw std::invalid_argument("solve_lp: objective size mismatch");
  }
  LpResult result;
  Tableau tab(lp);
  util::Timer timer;
  if (deadline_seconds > 0.0) tab.set_deadline(&timer, deadline_seconds);
  std::int64_t budget = max_pivots;
  LpStatus st = tab.phase1(budget);
  if (st != LpStatus::kOptimal) {
    result.status = st;
    return result;
  }
  st = tab.phase2(lp.objective, budget);
  result.status = st;
  if (st == LpStatus::kOptimal) {
    result.x = tab.extract_x();
    result.objective = tab.objective_value(lp.objective);
  }
  return result;
}

}  // namespace dgr::ilp
