#include "pipeline/adapters.hpp"

#include <new>
#include <utility>

#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace dgr::pipeline {

namespace {

/// Leaves the context's live demand equal to the solution's demand so the
/// next stage (or a warm re-entry) sees the true post-route state.
void sync_demand(RoutingContext& ctx, const eval::RouteSolution& sol) {
  ctx.reset_demand();
  ctx.commit(sol);
}

}  // namespace

// ---------------------------------------------------------------------------
// DgrRouter
// ---------------------------------------------------------------------------

DgrRouter::DgrRouter(core::DgrConfig config, dag::ForestOptions forest)
    : config_(config), forest_(forest) {}

eval::RouteSolution DgrRouter::route(RoutingContext& ctx) {
  DGR_TRACE_SCOPE("route.dgr");
  reset_stats();
  if (DGR_FAULT_POINT("pipeline.alloc")) throw std::bad_alloc();
  dag::ForestOptions fopts = forest_;
  fopts.via_demand_beta = ctx.via_beta();

  util::Timer timer;
  const dag::DagForest& forest = ctx.forest(fopts);
  stats_.add_stage("forest", timer.seconds());

  core::DgrConfig config = config_;
  config.deadline = ctx.deadline();

  core::DgrSolver solver(forest, ctx.capacities(), config);
  timer.reset();
  core::TrainStats train = solver.train();
  stats_.add_stage("train", timer.seconds());

  // Even on a non-OK status the solver holds its best healthy checkpoint,
  // so the extraction below is the last good solution — the pipeline uses
  // it to warm-start a fallback router when it degrades.
  timer.reset();
  eval::RouteSolution sol = solver.extract();
  stats_.add_stage("extract", timer.seconds());

  stats_.solver_bytes = forest.memory_bytes() + solver.relaxation().memory_bytes() +
                        train.tape_bytes;
  // Arena high-water mark of the reused tape, reported on its own so memory
  // regressions in the AD substrate are not masked by forest growth.
  stats_.add_counter("tape_bytes", static_cast<double>(train.tape_bytes));
  stats_.add_counter("iterations", static_cast<double>(train.iterations_run));
  stats_.add_counter("final_cost", train.final_cost.total);
  stats_.add_counter("path_candidates", static_cast<double>(forest.paths().size()));
  stats_.add_counter("logits", static_cast<double>(train.logits));
  stats_.add_counter("trainable_logits", static_cast<double>(train.trainable_logits));
  stats_.add_counter("checks", static_cast<double>(train.checks));
  stats_.add_counter("best_check_iteration", static_cast<double>(train.best_check_iteration));
  stats_.add_counter("stopped_on_plateau",
                     train.stop_reason == core::StopReason::kPlateau ? 1.0 : 0.0);
  stats_.add_counter("refine_checks", static_cast<double>(train.refine_checks));
  stats_.add_counter("refine_check_seconds", train.refine_seconds);
  stats_.status = train.status;
  stats_.rollbacks = train.rollbacks;
  if (train.rollbacks > 0) {
    stats_.add_counter("rollbacks", static_cast<double>(train.rollbacks));
  }
  // Surface the solver's convergence series (empty unless
  // config_.record_telemetry) through the uniform stats record.
  stats_.convergence = std::move(train.telemetry);
  sync_demand(ctx, sol);
  return sol;
}

// ---------------------------------------------------------------------------
// Cugr2Router
// ---------------------------------------------------------------------------

Cugr2Router::Cugr2Router(routers::Cugr2LiteOptions options) : options_(options) {}

eval::RouteSolution Cugr2Router::route(RoutingContext& ctx) {
  DGR_TRACE_SCOPE("route.cugr2-lite");
  reset_stats();
  routers::Cugr2LiteOptions opts = options_;
  opts.via_beta = ctx.via_beta();
  opts.deadline = ctx.deadline();
  routers::Cugr2Lite router(ctx.design(), ctx.capacities(), opts);
  routers::Cugr2LiteStats rs;
  eval::RouteSolution sol = router.route(&rs, ctx.warm_start());
  stats_.add_stage("route", rs.route_seconds);
  stats_.add_counter("rounds", static_cast<double>(rs.rounds_run));
  stats_.add_counter("nets_rerouted", static_cast<double>(rs.nets_rerouted));
  stats_.add_counter("warm_started", ctx.warm_start() != nullptr ? 1.0 : 0.0);
  // A deadline stop still returns the best whole snapshot; the solution is
  // usable but the refinement was cut short, so mark it degraded.
  stats_.degraded = rs.timed_out;
  sync_demand(ctx, sol);
  return sol;
}

// ---------------------------------------------------------------------------
// SpRouteRouter
// ---------------------------------------------------------------------------

SpRouteRouter::SpRouteRouter(routers::SpRouteLiteOptions options) : options_(options) {}

eval::RouteSolution SpRouteRouter::route(RoutingContext& ctx) {
  DGR_TRACE_SCOPE("route.sproute-lite");
  reset_stats();
  routers::SpRouteLiteOptions opts = options_;
  opts.via_beta = ctx.via_beta();
  opts.deadline = ctx.deadline();
  routers::SpRouteLite router(ctx.design(), ctx.capacities(), opts);
  routers::SpRouteLiteStats rs;
  eval::RouteSolution sol = router.route(&rs, ctx.warm_start());
  stats_.add_stage("route", rs.route_seconds);
  stats_.add_counter("rounds", static_cast<double>(rs.rounds_run));
  stats_.add_counter("nets_rerouted", static_cast<double>(rs.reroutes));
  stats_.add_counter("warm_started", ctx.warm_start() != nullptr ? 1.0 : 0.0);
  stats_.degraded = rs.timed_out;
  sync_demand(ctx, sol);
  return sol;
}

// ---------------------------------------------------------------------------
// LagrangianPipelineRouter
// ---------------------------------------------------------------------------

LagrangianPipelineRouter::LagrangianPipelineRouter(routers::LagrangianOptions options)
    : options_(options) {}

eval::RouteSolution LagrangianPipelineRouter::route(RoutingContext& ctx) {
  DGR_TRACE_SCOPE("route.lagrangian");
  reset_stats();
  routers::LagrangianOptions opts = options_;
  opts.via_beta = ctx.via_beta();
  opts.deadline = ctx.deadline();
  routers::LagrangianRouter router(ctx.design(), ctx.capacities(), opts);
  routers::LagrangianStats rs;
  eval::RouteSolution sol = router.route(&rs);
  stats_.add_stage("route", rs.route_seconds);
  stats_.add_counter("rounds", static_cast<double>(rs.rounds_run));
  stats_.add_counter("final_step", rs.final_step);
  stats_.degraded = rs.timed_out;
  sync_demand(ctx, sol);
  return sol;
}

}  // namespace dgr::pipeline
