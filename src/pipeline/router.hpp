#pragma once
/// \file
/// The abstract Router interface and the uniform RouterStats record.
///
/// Every global router in the repo — DGR and the three baseline families —
/// is exposed as a Router: route(RoutingContext&) -> eval::RouteSolution.
/// Routers report a common RouterStats (per-stage wall time, peak memory,
/// named counters) so the bench harnesses compare all engines through one
/// code path instead of four bespoke stats structs.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/solution.hpp"
#include "obs/convergence.hpp"
#include "pipeline/context.hpp"
#include "util/status.hpp"

namespace dgr::pipeline {

/// Wall time of one named stage of a routing run (e.g. "forest", "train",
/// "route", "maze_refine", "layer_assign", "eval").
struct StageTime {
  std::string stage;
  double seconds = 0.0;
};

/// One route attempt of a run that took the degradation path: the record of
/// a router that ran before the pipeline fell back to a cheaper one. Keeps
/// the failed attempt's convergence telemetry (e.g. DGR's per-iteration
/// series up to the divergence/timeout) that would otherwise be lost when
/// the fallback's stats take over the main record.
struct RouteAttempt {
  std::string router;   ///< registry name of the engine that attempted
  Status status;        ///< how the attempt ended
  std::int64_t rollbacks = 0;  ///< divergence rollbacks the attempt took
  bool degraded = false;       ///< the attempt itself ran in degraded mode
  /// The attempt's solver telemetry (empty for combinatorial engines).
  obs::ConvergenceSeries convergence;
};

/// Uniform per-run statistics: what every harness needs from every router.
struct RouterStats {
  std::string router;            ///< registry name of the router that ran
  std::vector<StageTime> stages; ///< per-stage wall time, in execution order
  /// Router-specific numeric counters (rounds run, nets rerouted, ...),
  /// uniformly typed so harnesses can print them without downcasting.
  std::vector<std::pair<std::string, double>> counters;
  std::size_t peak_rss_bytes = 0;  ///< process peak RSS after the run
  /// Solver-retained bytes (forest + relaxation + tape) — DGR's
  /// "GPU memory" proxy of Fig. 5b; 0 for the combinatorial routers.
  std::size_t solver_bytes = 0;

  // ---- failure-path record (stamped even when the run did not finish) -----
  /// Outcome of the run: OK, or the typed failure the pipeline acted on
  /// (STAGE_TIMEOUT, NUMERIC_DIVERGENCE, RESOURCE_EXHAUSTED, ...).
  Status status;
  std::int64_t rollbacks = 0;      ///< solver divergence rollbacks taken
  std::int64_t repaired_nets = 0;  ///< nets rebuilt by the validation gate
  /// The result came from a degraded path: the route stage fell back to a
  /// cheaper router, or the primary stopped early on its time budget.
  bool degraded = false;

  /// Per-iteration solver convergence telemetry (loss, overflow expectation,
  /// temperature, gradient norm, rollback events). Populated only by
  /// iterative routers when RouterOptions request it (DGR's
  /// record_telemetry); empty for the combinatorial baselines. On a
  /// degraded run this is the *winning* (fallback) attempt's series; the
  /// failed primary attempt's series survives in `attempts`.
  obs::ConvergenceSeries convergence;

  /// Attempt history of a degraded run, in execution order: the failed
  /// primary attempt first (with its status, rollbacks and convergence
  /// series intact), then the fallback attempt. Empty when the run did not
  /// degrade.
  std::vector<RouteAttempt> attempts;

  /// Nested sub-run stats, in deterministic sub-run order. Used by
  /// composite engines — the partitioned router stores one child per
  /// region (child.router is the region engine, counters carry the region
  /// geometry) — so harnesses can attribute the route stage's time to the
  /// regions that produced it. Empty for the leaf routers.
  std::vector<RouterStats> children;

  void add_stage(std::string stage, double seconds);
  void add_counter(std::string name, double value);
  /// Seconds of the named stage; 0 when the stage did not run.
  double stage_seconds(std::string_view stage) const;
  /// Sum over all recorded stages.
  double total_seconds() const;
  double counter(std::string_view name, double fallback = 0.0) const;
};

/// Abstract interchangeable routing engine. Implementations adapt the
/// concrete routers (core::DgrSolver + extraction, routers::Cugr2Lite,
/// routers::SpRouteLite, routers::LagrangianRouter) to the shared
/// RoutingContext; see pipeline/adapters.hpp.
class Router {
 public:
  virtual ~Router() = default;

  /// Registry name ("dgr", "cugr2-lite", "sproute-lite", "lagrangian",
  /// "partitioned").
  virtual std::string_view name() const = 0;

  /// Routes the context's design. Leaves the context's live demand equal to
  /// the returned solution's demand and refreshes stats().
  virtual eval::RouteSolution route(RoutingContext& ctx) = 0;

  const RouterStats& stats() const { return stats_; }

 protected:
  /// Called by implementations at the top of route().
  void reset_stats() {
    stats_ = {};
    stats_.router = std::string(name());
  }

  RouterStats stats_;
};

}  // namespace dgr::pipeline
