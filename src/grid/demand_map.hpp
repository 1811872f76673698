#pragma once
// Mutable per-edge routing demand, shared by every router in the repo.
//
// Sequential baselines (CUGR2-lite, SPRoute-lite, Lagrangian) mutate a
// DemandMap incrementally as they commit/rip-up nets; DGR's differentiable
// solver produces an *expected* demand internally and only materialises a
// DemandMap when extracting the discrete solution.

#include <cmath>
#include <cstdint>
#include <vector>

#include "grid/gcell_grid.hpp"

namespace dgr::grid {

class DemandMap {
 public:
  DemandMap() = default;
  explicit DemandMap(const GCellGrid& grid)
      : demand_(static_cast<std::size_t>(grid.edge_count()), 0.0) {}

  std::size_t edge_count() const { return demand_.size(); }
  double demand(EdgeId e) const { return demand_[static_cast<std::size_t>(e)]; }
  void add(EdgeId e, double amount) {
    demand_[static_cast<std::size_t>(e)] += quantize(amount);
  }

  /// Snaps an increment to the 2^-20 grid. Every amount committed this way
  /// is an exact dyadic double, so arbitrary interleavings of commit (+a)
  /// and uncommit (−a) are exact sums: rip-up restores the demand state
  /// byte-for-byte even for non-dyadic via charges (e.g. via_beta = 0.3).
  /// The 2^-20 grid (≈1e-6 resolution) is far below any demand tolerance
  /// used by the eval/validation layers.
  static double quantize(double amount) {
    constexpr double kScale = 1 << 20;
    constexpr double kInvScale = 1.0 / (1 << 20);
    return std::round(amount * kScale) * kInvScale;
  }
  void clear() { std::fill(demand_.begin(), demand_.end(), 0.0); }
  /// Zeroes only the listed edges: resets a scratch map whose demand is
  /// known to lie on them.
  void clear(const std::vector<EdgeId>& edges) {
    for (const EdgeId e : edges) demand_[static_cast<std::size_t>(e)] = 0.0;
  }

  const std::vector<double>& raw() const { return demand_; }

  /// Total overflow Σ_e max(0, d_e − cap_e).
  double total_overflow(const std::vector<float>& cap) const;

  /// Number of edges with d_e > cap_e (the "# G-cell edges w/ overflow"
  /// column of Tables 2–3). `eps` guards float round-off.
  std::int64_t overflowed_edge_count(const std::vector<float>& cap,
                                     double eps = 1e-6) const;

  /// Maximum single-edge overflow (used by the Fig. 6 weighted metric).
  double peak_overflow(const std::vector<float>& cap) const;

 private:
  std::vector<double> demand_;
};

}  // namespace dgr::grid
