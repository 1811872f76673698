#pragma once
/// \file
/// RoutingContext: the shared substrate every router stage operates on.
///
/// One context is built per routing problem and owns everything the four
/// router families used to duplicate internally or that the bench harnesses
/// used to hand-wire: the design, its g-cell grid, the per-edge 2D
/// capacities (Eq. 1 or an explicit override for the Table 1 protocol), a
/// live DemandMap with commit/uncommit bookkeeping, a seeded RNG, a cached
/// DAG forest (DGR's candidate pools), and the shared evaluation helpers.
///
/// Warm-start semantics: set_warm_start() stores a prior RouteSolution and
/// seeds the live demand from it. "cugr2-lite" and "sproute-lite" re-enter
/// their rip-up-and-reroute loop from that solution (e.g. SPRoute -> CUGR2
/// RRR, or the pipeline's fallback resuming from DGR's last extraction);
/// the other routers route cold. Maze refinement after any router is the
/// pipeline's StagePlan::maze_refine stage.

#include <cstdint>
#include <memory>
#include <vector>

#include "dag/forest.hpp"
#include "design/design.hpp"
#include "eval/metrics.hpp"
#include "eval/solution.hpp"
#include "grid/demand_map.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace dgr::pipeline {

struct ContextOptions {
  /// Explicit per-edge 2D capacities (the Table 1 uniform-capacity
  /// protocol). Empty = derive from the design via Eq. (1).
  std::vector<float> capacities;
  /// Eq. (1) beta used when deriving capacities from the design.
  float capacity_beta = 0.5f;
  /// Via demand charged per bend; the single source of truth for every
  /// stage's demand bookkeeping, metrics, and the forest's via model.
  float via_beta = 0.5f;
  /// Seed for the context RNG (stochastic routers fork from it).
  std::uint64_t seed = 1;
};

class RoutingContext {
 public:
  /// `design` must outlive the context.
  explicit RoutingContext(const design::Design& design, ContextOptions options = {});

  const design::Design& design() const { return *design_; }
  const grid::GCellGrid& grid() const { return design_->grid(); }
  const std::vector<float>& capacities() const { return capacities_; }
  float via_beta() const { return options_.via_beta; }
  std::uint64_t seed() const { return options_.seed; }
  util::Rng& rng() { return rng_; }

  // ---- live demand bookkeeping --------------------------------------------
  grid::DemandMap& demand() { return demand_; }
  const grid::DemandMap& demand() const { return demand_; }
  void reset_demand() { demand_.clear(); }
  /// Adds (`sign` = +1) or removes (`sign` = -1) one net's contribution.
  void commit(const eval::NetRoute& net, double sign = 1.0);
  /// Commits every net of a solution.
  void commit(const eval::RouteSolution& sol, double sign = 1.0);

  // ---- warm start ----------------------------------------------------------
  /// Stores `prior` and re-seeds the live demand from it. The next
  /// "cugr2-lite" or "sproute-lite" route stage resumes from this solution.
  void set_warm_start(eval::RouteSolution prior);
  /// The stored prior solution, or nullptr when routing cold.
  const eval::RouteSolution* warm_start() const {
    return has_warm_start_ ? &warm_start_ : nullptr;
  }
  void clear_warm_start();

  // ---- stop signal ---------------------------------------------------------
  /// When every route stage run on this context must stop. The adapters
  /// stamp it into their engine options (DGR stops at its best checkpoint
  /// with kStageTimeout, the baselines after their initial pass, marked
  /// degraded); the pipeline's fallback router sees the same deadline, and
  /// partition sub-contexts copy it. The default never expires.
  void set_deadline(util::Deadline deadline) { deadline_ = deadline; }
  const util::Deadline& deadline() const { return deadline_; }

  // ---- DAG forest cache ----------------------------------------------------
  /// The DAG forest for this design, built on first use and cached; a call
  /// with different options rebuilds, invalidating references to the
  /// previously returned forest. `options.via_demand_beta` is ignored —
  /// the context's via_beta is stamped in so every consumer (DGR, ILP
  /// oracle) prices vias identically. Shared so repeated DGR runs (seed
  /// sweeps, hyper-parameter search) pay construction once.
  const dag::DagForest& forest(const dag::ForestOptions& options = {});
  /// Whether a forest with exactly these options is already cached.
  bool has_forest(const dag::ForestOptions& options) const;

  // ---- shared evaluation ---------------------------------------------------
  /// Metrics of a solution against this context's capacities and via model.
  eval::Metrics evaluate(const eval::RouteSolution& sol) const;
  double weighted_overflow(const eval::RouteSolution& sol) const;
  std::int64_t nets_with_overflow(const eval::RouteSolution& sol) const;

 private:
  const design::Design* design_ = nullptr;
  ContextOptions options_;
  std::vector<float> capacities_;
  grid::DemandMap demand_;
  util::Rng rng_;
  eval::RouteSolution warm_start_;
  bool has_warm_start_ = false;
  std::unique_ptr<dag::DagForest> forest_;
  dag::ForestOptions forest_options_;
  util::Deadline deadline_;
};

}  // namespace dgr::pipeline
