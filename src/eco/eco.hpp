#pragma once
/// \file
/// dgr::eco — incremental (ECO) rerouting on top of the unified pipeline.
///
/// A routed design rarely stays routed: pins move, nets appear and
/// disappear, obstacles drop in, net classes get re-prioritised. Rerouting
/// the whole design for every such Engineering Change Order wastes orders
/// of magnitude of work when only a few percent of nets are affected. The
/// EcoEngine keeps the previous solution live and, per mutation:
///
///   1. applies the mutation to its DesignState (design/mutate.hpp),
///   2. computes the affected-net closure — the mutation's direct targets,
///      plus every surviving net whose route crosses an edge the mutation
///      made overflowed (legality closure, run to fixpoint), plus nets
///      whose pin bounding box covers a substantially capacity-increased
///      edge (opportunity closure, so freed regions get re-used),
///   3. uncommits exactly the closure from the live demand
///      (DemandMap commit/uncommit),
///   4. re-routes the closure through any registered router on a delta
///      sub-design whose capacities are the residuals left by the clean
///      nets, warm-started from the previous routes where the router
///      supports it, heaviest net classes first,
///   5. merges, re-validates through the pipeline's post-route gate, and
///      commits the new state transactionally.
///
/// When the closure exceeds EcoOptions::full_reroute_threshold of the
/// routable nets, the engine falls back to a from-scratch Pipeline::run —
/// delta routing a mostly-dirty design costs more than it saves.
///
/// Determinism contract: with a fixed (state seed, mutation sequence,
/// router, options), apply() is bitwise-deterministic across worker counts
/// — the closure and merge are serial and the registered routers carry the
/// PR 1 determinism contract. Failure contract: apply() is transactional —
/// on any error (including injected faults at the `eco.closure` and
/// `eco.recommit` sites) the pre-mutation design, solution, and demand are
/// untouched.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "design/mutate.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace dgr::eco {

struct EcoOptions {
  /// Context parameters shared by full and delta routing (seed, via model,
  /// optional explicit base capacities before blockages).
  pipeline::ContextOptions context;
  /// Registry name of the router used for both delta and full reroutes.
  std::string router = "cugr2-lite";
  pipeline::RouterOptions router_options;
  /// Dirty fraction (closure / routable nets) above which apply() abandons
  /// delta routing and re-routes from scratch.
  double full_reroute_threshold = 0.35;
};

/// Per-apply bookkeeping, the ECO analogue of RouterStats.
struct EcoStats {
  std::size_t seed_dirty = 0;     ///< nets named by the mutation itself
  std::size_t closure_dirty = 0;  ///< after legality + opportunity closure
  std::size_t routable_nets = 0;  ///< routable nets in the mutated design
  double dirty_fraction = 0.0;    ///< closure_dirty / routable_nets
  int closure_rounds = 0;         ///< legality fixpoint iterations
  bool full_reroute = false;      ///< fell back to a from-scratch route
  double closure_seconds = 0.0;
  double route_seconds = 0.0;     ///< delta (or full) routing time
  double merge_seconds = 0.0;     ///< merge + validate + eval time
  double total_seconds = 0.0;
  std::int64_t repaired_nets = 0; ///< nets rebuilt by the validation gate
};

/// Everything one apply() reports. The solution itself lives in the engine
/// (EcoEngine::solution()) so sequences do not copy it per step.
struct EcoResult {
  eval::Metrics metrics;
  double weighted_overflow = 0.0;
  std::int64_t nets_with_overflow = 0;
  pipeline::ValidationReport validation;
  pipeline::RouterStats router_stats;  ///< delta or full route stage stats
  EcoStats stats;
};

class EcoEngine {
 public:
  explicit EcoEngine(design::DesignState base, EcoOptions options = {});
  ~EcoEngine();
  EcoEngine(const EcoEngine&) = delete;
  EcoEngine& operator=(const EcoEngine&) = delete;

  /// Establishes the baseline: a cold Pipeline::run of the configured
  /// router on the current design. Must be called (or adopt()) before
  /// apply().
  Result<EcoResult> route_full();

  /// Adopts `solution` (indexed like the current design) as the baseline
  /// instead of routing; kInvalidArgument when the shape does not match.
  Status adopt(const eval::RouteSolution& solution);

  /// Applies one mutation transactionally: mutate, close, delta-or-full
  /// reroute, merge, validate, commit. On failure the engine state is
  /// byte-for-byte the pre-mutation state.
  Result<EcoResult> apply(const design::Mutation& mutation);

  const design::DesignState& state() const { return *state_; }
  const design::Design& design() const { return state_->design; }
  /// Current solution; valid after a successful route_full()/adopt().
  const eval::RouteSolution& solution() const { return solution_; }
  bool has_solution() const { return solution_.design != nullptr; }
  /// Current capacities (base with blockages applied).
  const std::vector<float>& capacities() const { return capacities_; }
  /// Mutations successfully applied since construction.
  std::int64_t applied() const { return applied_; }

 private:
  std::vector<float> compute_capacities(const design::DesignState& state) const;
  Result<EcoResult> full_reroute(std::unique_ptr<design::DesignState> next,
                                 std::vector<float> cap, EcoStats stats,
                                 util::Timer& total);
  /// Evaluates + validates `merged` against `cap`, then commits the new
  /// (state, capacities, solution) into the engine. Hosts the
  /// `eco.recommit` fault site: a fault here aborts before any member is
  /// touched, so both the delta and full-reroute paths roll back cleanly.
  Result<EcoResult> finalize(std::unique_ptr<design::DesignState> next,
                             std::vector<float> cap, eval::RouteSolution merged,
                             pipeline::RouterStats router_stats, EcoStats stats,
                             util::Timer& total);

  EcoOptions options_;
  std::unique_ptr<design::DesignState> state_;  // stable Design address
  std::vector<float> capacities_;
  eval::RouteSolution solution_;
  std::int64_t applied_ = 0;
};

}  // namespace dgr::eco
