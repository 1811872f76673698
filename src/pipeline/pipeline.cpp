#include "pipeline/pipeline.hpp"

#include <exception>
#include <memory>
#include <new>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/memprobe.hpp"
#include "util/timer.hpp"

namespace dgr::pipeline {

namespace {

/// Failures worth degrading for: the run died or ran out of some resource,
/// so a cheaper router can still salvage a result. Caller errors
/// (InvalidArgument and friends) surface instead — degrading would mask a
/// misconfiguration.
bool should_degrade(StatusCode code) {
  switch (code) {
    case StatusCode::kStageTimeout:
    case StatusCode::kNumericDivergence:
    case StatusCode::kResourceExhausted:
    case StatusCode::kFaultInjected:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

Pipeline::Pipeline(RoutingContext& ctx, PipelineOptions options)
    : ctx_(&ctx), options_(options) {}

PipelineResult Pipeline::run(Router& router, const StagePlan& plan) {
  ctx_->clear_warm_start();
  return run_stages(router, plan);
}

PipelineResult Pipeline::run(const std::string& router_name, const RouterOptions& options,
                             const StagePlan& plan) {
  const std::unique_ptr<Router> router = make_router(router_name, options);
  if (router == nullptr) {
    DGR_LOG_ERROR("pipeline: no router registered under '%s'", router_name.c_str());
    PipelineResult result;
    result.stats.status = Status(StatusCode::kNotFound,
                                 "no router registered under '" + router_name + "'");
    return result;
  }
  return run(*router, plan);
}

PipelineResult Pipeline::rerun(Router& router, eval::RouteSolution prior,
                               const StagePlan& plan) {
  ctx_->set_warm_start(std::move(prior));
  return run_stages(router, plan);
}

PipelineResult Pipeline::rerun(const std::string& router_name, eval::RouteSolution prior,
                               const RouterOptions& options, const StagePlan& plan) {
  const std::unique_ptr<Router> router = make_router(router_name, options);
  if (router == nullptr) {
    DGR_LOG_ERROR("pipeline: no router registered under '%s'", router_name.c_str());
    PipelineResult result;
    result.stats.status = Status(StatusCode::kNotFound,
                                 "no router registered under '" + router_name + "'");
    return result;
  }
  return rerun(*router, std::move(prior), plan);
}

PipelineResult Pipeline::run_stages(Router& router, const StagePlan& plan) {
  DGR_TRACE_SCOPE("pipeline.run");
  obs::metrics().counter("pipeline.runs").add(1);
  PipelineResult result;

  // ---- route stage: exception-hardened ------------------------------------
  util::Timer timer;
  Status route_status;
  try {
    DGR_TRACE_SCOPE("pipeline.route_total");
    if (DGR_FAULT_POINT("pipeline.stage")) {
      route_status = Status(StatusCode::kFaultInjected, "injected route-stage fault");
    } else {
      result.solution = router.route(*ctx_);
      result.stats = router.stats();
      route_status = result.stats.status;
    }
  } catch (const std::bad_alloc&) {
    result.stats = router.stats();
    route_status = Status(StatusCode::kResourceExhausted,
                          std::string(router.name()) + ": allocation failure in route stage");
  } catch (const std::exception& e) {
    result.stats = router.stats();
    route_status =
        Status(StatusCode::kInternal, std::string(router.name()) + ": " + e.what());
  }
  result.stats.router = std::string(router.name());
  result.stats.status = route_status;
  // Distinct from the adapters' engine-internal "route" stage so
  // stage_seconds("route") keeps meaning engine time only.
  result.stats.add_stage("route_total", timer.seconds());

  // ---- graceful degradation -----------------------------------------------
  const StageBudgets& budgets = options_.budgets;
  if (!route_status.ok() && should_degrade(route_status.code()) &&
      (budgets.degrade_on_divergence ||
       route_status.code() != StatusCode::kNumericDivergence) &&
      !budgets.fallback_router.empty() && budgets.fallback_router != router.name() &&
      has_router(budgets.fallback_router)) {
    DGR_LOG_WARN("pipeline: route stage of '%s' failed (%s); degrading to '%s'",
                 result.stats.router.c_str(), route_status.to_string().c_str(),
                 budgets.fallback_router.c_str());
    const std::unique_ptr<Router> fallback =
        make_router(budgets.fallback_router, options_.fallback_options);
    // Preserve the failed attempt's record — in particular its convergence
    // series (the DGR trajectory up to the divergence/timeout) — before the
    // fallback's stats take over the main record.
    {
      RouteAttempt failed;
      failed.router = result.stats.router;
      failed.status = route_status;
      failed.rollbacks = result.stats.rollbacks;
      failed.degraded = result.stats.degraded;
      failed.convergence = std::move(result.stats.convergence);
      result.stats.attempts.push_back(std::move(failed));
      result.stats.convergence = {};
    }
    // Warm-start the fallback from the failed stage's last healthy
    // extraction when it is a complete solution; otherwise route cold.
    if (budgets.warm_start_fallback && result.solution.design != nullptr &&
        !result.solution.nets.empty() && result.solution.connects_all_pins()) {
      ctx_->set_warm_start(std::move(result.solution));
    } else {
      ctx_->clear_warm_start();
      ctx_->reset_demand();
    }
    result.solution = {};
    timer.reset();
    try {
      result.solution = fallback->route(*ctx_);
      const RouterStats& fs = fallback->stats();
      for (const StageTime& st : fs.stages) {
        result.stats.add_stage("fallback_" + st.stage, st.seconds);
      }
      for (const auto& [counter, value] : fs.counters) {
        result.stats.add_counter("fallback_" + counter, value);
      }
      result.stats.status = fs.status;  // OK unless the fallback failed too
      result.stats.convergence = fs.convergence;
      RouteAttempt winner;
      winner.router = budgets.fallback_router;
      winner.status = fs.status;
      winner.rollbacks = fs.rollbacks;
      winner.degraded = fs.degraded;
      winner.convergence = fs.convergence;
      result.stats.attempts.push_back(std::move(winner));
    } catch (const std::exception& e) {
      result.stats.status =
          Status(StatusCode::kInternal, budgets.fallback_router + ": " + e.what());
      RouteAttempt winner;
      winner.router = budgets.fallback_router;
      winner.status = result.stats.status;
      result.stats.attempts.push_back(std::move(winner));
    }
    result.stats.add_stage("fallback_route", timer.seconds());
    result.stats.degraded = true;
  }
  if (result.stats.degraded) {
    result.stats.add_counter("degraded", 1.0);
    obs::metrics().counter("pipeline.degraded").add(1);
  }

  // ---- failure path: nothing routable came back ---------------------------
  if (result.solution.design == nullptr) {
    // Still report the run's timers and memory so post-mortems see where
    // the time and RSS went.
    result.stats.peak_rss_bytes = util::peak_rss_bytes();
    return result;
  }

  if (plan.maze_refine) {
    DGR_TRACE_SCOPE("pipeline.maze_refine");
    post::MazeRefineOptions refine = options_.refine;
    refine.via_beta = ctx_->via_beta();
    timer.reset();
    result.refine = post::maze_refine(result.solution, ctx_->capacities(), refine);
    result.stats.add_stage("maze_refine", timer.seconds());
    // Refinement moved wires; re-sync the context's live demand.
    ctx_->reset_demand();
    ctx_->commit(result.solution);
  }

  // ---- validation gate ----------------------------------------------------
  if (options_.validate) {
    DGR_TRACE_SCOPE("pipeline.validate");
    timer.reset();
    result.validation = validate_solution(*ctx_, result.solution);
    if (!result.validation.demand_consistent) {
      DGR_LOG_WARN("pipeline: %s; resyncing live demand",
                   result.validation.status.to_string().c_str());
      ctx_->reset_demand();
      ctx_->commit(result.solution);
    }
    if (!result.validation.broken_nets.empty()) {
      post::MazeRefineOptions ropts = options_.refine;
      ropts.via_beta = ctx_->via_beta();
      result.stats.repaired_nets = repair_broken_nets(
          *ctx_, result.solution, result.validation.broken_nets, ropts);
      result.stats.add_counter("repaired_nets",
                               static_cast<double>(result.stats.repaired_nets));
      // Re-validate; nets that stayed broken are a typed failure the caller
      // must see, not a silently wrong metrics row.
      result.validation = validate_solution(*ctx_, result.solution);
      if (!result.validation.broken_nets.empty()) {
        result.stats.status = result.validation.status;
      }
    }
    result.stats.add_stage("validate", timer.seconds());
  }

  if (plan.layer_assign) {
    DGR_TRACE_SCOPE("pipeline.layer_assign");
    timer.reset();
    result.layers = post::assign_layers(result.solution, ctx_->capacities(),
                                        options_.layers);
    result.stats.add_stage("layer_assign", timer.seconds());
  }

  {
    DGR_TRACE_SCOPE("pipeline.eval");
    timer.reset();
    result.metrics = ctx_->evaluate(result.solution);
    result.weighted_overflow = ctx_->weighted_overflow(result.solution);
    result.nets_with_overflow = ctx_->nets_with_overflow(result.solution);
    result.stats.add_stage("eval", timer.seconds());
  }

  result.stats.peak_rss_bytes = util::peak_rss_bytes();
  return result;
}

}  // namespace dgr::pipeline
