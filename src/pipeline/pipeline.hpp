#pragma once
/// \file
/// The Pipeline stage orchestrator: one code path from any Router to the
/// paper's metrics.
///
/// Stages, in order (each timed into the run's RouterStats):
///   route_total  Router::route(ctx) wall time — the router itself reports
///                sub-stages (DGR: "forest" / "train" / "extract";
///                baselines: "route" for engine-internal time)
///   maze_refine  optional post::maze_refine (Section 4.6)
///   layer_assign optional DP layer assignment to 3D (Section 4.6)
///   eval         shared metric computation (Tables 2-3 columns, Fig. 6
///                weighted overflow) against the context's capacities
///
/// Re-entry: a warm start stored on the context
/// (RoutingContext::set_warm_start) is what the route stage resumes from;
/// Pipeline::run clears it, so a warm re-entry calls Router::route directly,
/// as the degraded fallback below and ECO's delta route do.

#include <string>

#include "eval/metrics.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/router.hpp"
#include "pipeline/validate.hpp"
#include "post/layer_assign.hpp"
#include "post/maze_refine.hpp"

namespace dgr::pipeline {

/// Which optional stages a particular run executes.
struct StagePlan {
  bool maze_refine = false;   ///< run the shared maze-refinement stage
  bool layer_assign = true;   ///< run DP layer assignment (3D metrics)
};

struct PipelineOptions {
  post::MazeRefineOptions refine;   ///< maze_refine stage parameters
  post::LayerAssignOptions layers;  ///< layer_assign stage parameters
  /// Route-stage degradation. Registry name to fall back to when the route
  /// stage fails with a degradable status (timeout, divergence, resource
  /// exhaustion, internal error, injected fault); when it stops is the
  /// context's deadline (RoutingContext::set_deadline). Empty disables
  /// degradation: the typed error is surfaced in stats.status instead.
  /// Non-degradable failures (caller errors such as InvalidArgument or
  /// NotFound) always surface.
  std::string fallback_router = "cugr2-lite";
  /// When false, kNumericDivergence surfaces in stats.status instead of
  /// degrading — for callers that own a retry-with-reseed loop (the serve
  /// daemon retries divergence with a fresh seed before degrading on its
  /// final attempt). All other degradable codes still degrade.
  bool degrade_on_divergence = true;
  /// Post-route validation gate: per-net geometry/connectivity checks plus
  /// demand accounting against the live DemandMap; broken nets are repaired
  /// with a congestion-priced maze reroute before evaluation.
  bool validate = true;
};

/// Everything a harness reports about one routing run.
struct PipelineResult {
  eval::RouteSolution solution;
  eval::Metrics metrics;                ///< shared eval stage (2D)
  double weighted_overflow = 0.0;       ///< Fig. 6 y-axis metric
  std::int64_t nets_with_overflow = 0;  ///< n1 (2D stand-in)
  post::LayerAssignment layers;         ///< valid when plan.layer_assign
  post::MazeRefineStats refine;         ///< valid when plan.maze_refine
  ValidationReport validation;          ///< valid when options.validate
  RouterStats stats;                    ///< router sub-stages + pipeline stages
};

class Pipeline {
 public:
  explicit Pipeline(RoutingContext& ctx, PipelineOptions options = {});

  /// Runs `router` cold (clears any warm start first), then the planned
  /// post/eval stages.
  PipelineResult run(Router& router, const StagePlan& plan = {});

  /// Registry convenience: instantiates `router_name` with `options`, runs
  /// it, discards it. Returns an empty result (no nets, empty stats.router)
  /// when the name is not registered.
  PipelineResult run(const std::string& router_name, const RouterOptions& options = {},
                     const StagePlan& plan = {});

  RoutingContext& context() { return *ctx_; }
  PipelineOptions& options() { return options_; }

 private:
  RoutingContext* ctx_;
  PipelineOptions options_;
};

}  // namespace dgr::pipeline
