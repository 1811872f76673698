// Pipeline layer tests: RoutingContext bookkeeping, the router registry,
// the stage orchestrator, warm-start semantics, and the cross-router
// differential test — every registered router, run through the same
// Pipeline on a small seeded design, must return a fully connected,
// direction-legal solution whose metrics come from the shared eval stage.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/solver.hpp"
#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"

namespace dgr::pipeline {
namespace {

design::Design small_design(std::uint64_t seed = 4242) {
  design::IspdLikeParams p;
  p.name = "pipeline_small";
  p.grid_w = p.grid_h = 16;
  p.num_nets = 120;
  p.layers = 5;
  p.tracks_per_layer = 3;
  p.hotspot_affinity = 0.5;
  return design::generate_ispd_like(p, seed);
}

/// Fast DGR settings for tests (the default 1000 iterations is bench-scale).
RouterOptions fast_options() {
  RouterOptions o;
  o.dgr.iterations = 80;
  o.dgr.temperature_interval = 20;
  return o;
}

/// A deadline that has already passed: every engine stops at its first poll.
util::Deadline expired_deadline() { return util::Deadline(std::chrono::steady_clock::now()); }

/// Direction legality: every path has >= 2 waypoints, consecutive waypoints
/// are axis-aligned (H/V legs only), all waypoints are on the grid, and the
/// walked edges resolve to valid edge ids.
void expect_direction_legal(const eval::RouteSolution& sol, const grid::GCellGrid& grid) {
  for (const eval::NetRoute& net : sol.nets) {
    for (const dag::PatternPath& path : net.paths) {
      ASSERT_GE(path.waypoints.size(), 2u);
      for (std::size_t i = 0; i + 1 < path.waypoints.size(); ++i) {
        const geom::Point a = path.waypoints[i];
        const geom::Point b = path.waypoints[i + 1];
        EXPECT_TRUE(grid.in_bounds(a));
        EXPECT_TRUE(grid.in_bounds(b));
        EXPECT_TRUE(a.x == b.x || a.y == b.y)
            << "diagonal leg (" << a.x << "," << a.y << ")-(" << b.x << "," << b.y << ")";
      }
      for (const grid::EdgeId e : path.edges(grid)) {
        EXPECT_GE(e, 0);
        EXPECT_LT(e, grid.edge_count());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RoutingContext
// ---------------------------------------------------------------------------

TEST(RoutingContext, DerivesEq1CapacitiesByDefault) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  EXPECT_EQ(ctx.capacities(), d.capacities());
  EXPECT_EQ(ctx.capacities().size(), static_cast<std::size_t>(d.grid().edge_count()));
}

TEST(RoutingContext, ExplicitCapacitiesOverrideEq1) {
  const design::Design d = small_design();
  ContextOptions opts;
  opts.capacities.assign(static_cast<std::size_t>(d.grid().edge_count()), 7.0f);
  RoutingContext ctx(d, opts);
  EXPECT_FLOAT_EQ(ctx.capacities().front(), 7.0f);
  EXPECT_FLOAT_EQ(ctx.capacities().back(), 7.0f);
}

TEST(RoutingContext, CommitUncommitIsSymmetric) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Cugr2Router router;
  const eval::RouteSolution sol = router.route(ctx);
  // route() leaves the live demand equal to the solution's demand.
  const grid::DemandMap reference = sol.demand(ctx.via_beta());
  ASSERT_EQ(ctx.demand().raw().size(), reference.raw().size());
  for (std::size_t e = 0; e < reference.raw().size(); ++e) {
    EXPECT_NEAR(ctx.demand().raw()[e], reference.raw()[e], 1e-9);
  }
  ctx.commit(sol, -1.0);
  for (const double v : ctx.demand().raw()) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(RoutingContext, ForestIsCachedPerOptions) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  dag::ForestOptions opts;
  const dag::DagForest& a = ctx.forest(opts);
  const dag::DagForest& b = ctx.forest(opts);
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(ctx.has_forest(opts));
  // Rebuilding with different options frees the cached forest, so read
  // everything needed from `a` before requesting the other variant.
  const std::size_t base_paths = a.paths().size();
  dag::ForestOptions other = opts;
  other.paths.z_samples = 2;
  EXPECT_FALSE(ctx.has_forest(other));
  const dag::DagForest& c = ctx.forest(other);
  EXPECT_GT(c.paths().size(), base_paths);
  // A nested field is part of the key too: the cache rebuilds on it.
  dag::ForestOptions nested = other;
  nested.tree.trunk_topology = true;
  EXPECT_FALSE(ctx.has_forest(nested));
  ctx.forest(nested);
  EXPECT_TRUE(ctx.has_forest(nested));
  EXPECT_FALSE(ctx.has_forest(other));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, ResolvesAllFourRoutersByName) {
  for (const char* name : {"dgr", "cugr2-lite", "sproute-lite", "lagrangian"}) {
    EXPECT_TRUE(has_router(name)) << name;
    const std::unique_ptr<Router> r = make_router(name);
    ASSERT_NE(r, nullptr) << name;
    EXPECT_EQ(r->name(), name);
  }
  EXPECT_EQ(registered_routers(),
            (std::vector<std::string>{"cugr2-lite", "dgr", "lagrangian", "partitioned",
                                      "sproute-lite"}));
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_FALSE(has_router("no-such-router"));
  EXPECT_EQ(make_router("no-such-router"), nullptr);
  EXPECT_FALSE(has_router("maze-refine"));  // refinement is a StagePlan stage
}

// ---------------------------------------------------------------------------
// Cross-router differential test (satellite): same design, same Pipeline,
// shared eval stage, for every registered router.
// ---------------------------------------------------------------------------

TEST(Differential, EveryRegisteredRouterRoutesTheSameDesignLegally) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = small_design(/*seed=*/777);
  RoutingContext ctx(d);
  Pipeline pipe(ctx);

  for (const std::string& name : registered_routers()) {
    const std::unique_ptr<Router> router = make_router(name, fast_options());
    ASSERT_NE(router, nullptr) << name;
    const PipelineResult result = pipe.run(*router);

    // Fully connected and direction-legal.
    ASSERT_EQ(result.solution.nets.size(), d.routable_nets().size()) << name;
    EXPECT_TRUE(result.solution.connects_all_pins()) << name;
    expect_direction_legal(result.solution, d.grid());

    // Metrics come from the shared eval stage and are self-consistent.
    const eval::Metrics check =
        eval::compute_metrics(result.solution, ctx.capacities(), ctx.via_beta());
    EXPECT_EQ(result.metrics.wirelength, check.wirelength) << name;
    EXPECT_EQ(result.metrics.overflow_edges, check.overflow_edges) << name;
    EXPECT_EQ(result.metrics.bends, check.bends) << name;
    EXPECT_GT(result.metrics.wirelength, 0) << name;
    EXPECT_GE(result.weighted_overflow, 0.0) << name;

    // Uniform stats: named router, at least one timed stage, 3D metrics.
    // (Registry keys may alias an adapter, so compare against the adapter's
    // own name rather than the lookup key.)
    EXPECT_EQ(result.stats.router, router->name());
    EXPECT_FALSE(result.stats.stages.empty()) << name;
    EXPECT_GT(result.stats.stage_seconds("route_total"), 0.0) << name;
    EXPECT_GT(result.layers.via_count, 0) << name;
  }
}

// ---------------------------------------------------------------------------
// Stage orchestration + stats
// ---------------------------------------------------------------------------

TEST(Pipeline, DgrRunReportsPerStageTimesAndSolverBytes) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r =
      pipe.run("dgr", fast_options(), StagePlan{.maze_refine = true, .layer_assign = true});
  EXPECT_EQ(r.stats.router, "dgr");
  for (const char* stage : {"forest", "train", "extract", "maze_refine", "layer_assign"}) {
    bool found = false;
    for (const auto& s : r.stats.stages) found |= (s.stage == stage);
    EXPECT_TRUE(found) << stage;
  }
  EXPECT_GT(r.stats.stage_seconds("train"), 0.0);
  EXPECT_GT(r.stats.solver_bytes, 0u);
  EXPECT_GT(r.stats.peak_rss_bytes, 0u);
  EXPECT_GT(r.stats.counter("iterations"), 0.0);
  EXPECT_GE(r.stats.total_seconds(), r.stats.stage_seconds("train"));
  EXPECT_TRUE(r.solution.connects_all_pins());
}

TEST(Pipeline, DgrCountsTrainableLogits) {
  // A logit is trainable iff its softmax group (a subnet's paths, a net's
  // trees) has two or more candidates.
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const RouterOptions opts = fast_options();
  const PipelineResult r = pipe.run("dgr", opts);
  dag::ForestOptions fopts = opts.forest;
  fopts.via_demand_beta = ctx.via_beta();
  ASSERT_TRUE(ctx.has_forest(fopts));
  const dag::DagForest& forest = ctx.forest(fopts);

  std::size_t trainable = 0;
  for (const dag::Subnet& s : forest.subnets()) {
    const auto n = static_cast<std::size_t>(s.path_end - s.path_begin);
    if (n >= 2) trainable += n;
  }
  const std::vector<std::int32_t>& trees = forest.net_tree_offsets();
  for (std::size_t n = 0; n + 1 < trees.size(); ++n) {
    const auto k = static_cast<std::size_t>(trees[n + 1] - trees[n]);
    if (k >= 2) trainable += k;
  }
  const std::size_t logits = forest.paths().size() + forest.trees().size();
  EXPECT_EQ(r.stats.counter("logits"), static_cast<double>(logits));
  EXPECT_EQ(r.stats.counter("trainable_logits"), static_cast<double>(trainable));
  EXPECT_GT(trainable, 0u);
  EXPECT_LT(trainable, logits);
}

TEST(Pipeline, DgrReportsPlateauCounters) {
  // A sparse design: the first check's extraction is overflow-free, so the
  // default patience (3) stops training at the fourth check, and no check
  // needs refine's verdict.
  design::IspdLikeParams p;
  p.name = "pipeline_sparse";
  p.grid_w = p.grid_h = 16;
  p.num_nets = 60;
  p.layers = 5;
  p.tracks_per_layer = 4;
  const design::Design d = design::generate_ispd_like(p, 5);
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  RouterOptions opts;
  opts.dgr.iterations = 400;
  opts.dgr.temperature_interval = 40;
  constexpr double kMissing = -2.0;

  const PipelineResult stopped = pipe.run("dgr", opts);
  EXPECT_EQ(stopped.stats.counter("stopped_on_plateau", kMissing), 1.0);
  EXPECT_EQ(stopped.stats.counter("checks", kMissing), 4.0);
  EXPECT_EQ(stopped.stats.counter("best_check_iteration", kMissing), 50.0);
  EXPECT_EQ(stopped.stats.counter("iterations"), 200.0);
  EXPECT_EQ(stopped.stats.counter("refine_checks", kMissing), 0.0);
  EXPECT_EQ(stopped.stats.counter("refine_check_seconds", kMissing), 0.0);
  EXPECT_EQ(stopped.metrics.overflow_edges, 0);

  opts.dgr.patience_checks = 0;
  const PipelineResult fixed = pipe.run("dgr", opts);
  EXPECT_EQ(fixed.stats.counter("stopped_on_plateau", kMissing), 0.0);
  EXPECT_EQ(fixed.stats.counter("checks", kMissing), 0.0);
  EXPECT_EQ(fixed.stats.counter("best_check_iteration", kMissing), -1.0);
  EXPECT_EQ(fixed.stats.counter("iterations"), 400.0);
  EXPECT_EQ(fixed.stats.counter("refine_checks", kMissing), 0.0);
}

TEST(Pipeline, RefineClearedStopMatchesTrainExtractRefine) {
  // The best check keeps 1 overflowed edge that maze refine clears, so the
  // stop rests on refine's verdict. The public calls Pipeline::run makes
  // (forest, DgrSolver::train, extract, post::maze_refine) must give the
  // same routes, since a traced flow rebuilt from them relies on it.
  design::IspdLikeParams p;
  p.name = "pipeline_stuck_edge";
  p.grid_w = p.grid_h = 16;
  p.num_nets = 120;
  p.layers = 5;
  p.tracks_per_layer = 4;
  const design::Design d = design::generate_ispd_like(p, 22);
  const RouterOptions opts;  // the traced flow's RouterOptions{}.dgr
  constexpr double kMissing = -2.0;

  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("dgr", opts, StagePlan{.maze_refine = true});
  ASSERT_TRUE(r.stats.status.ok()) << r.stats.status.to_string();
  EXPECT_EQ(r.stats.counter("stopped_on_plateau", kMissing), 1.0);
  EXPECT_LT(r.stats.counter("iterations"), 1000.0);
  EXPECT_GE(r.stats.counter("refine_checks", kMissing), 1.0);
  EXPECT_EQ(r.metrics.overflow_edges, 0);

  RoutingContext manual(d);
  dag::ForestOptions fopts = opts.forest;
  fopts.via_demand_beta = manual.via_beta();
  core::DgrSolver solver(manual.forest(fopts), manual.capacities(), opts.dgr);
  const core::TrainStats train = solver.train();
  EXPECT_EQ(train.stop_reason, core::StopReason::kPlateau);
  eval::RouteSolution sol = solver.extract();
  post::MazeRefineOptions refine;
  refine.via_beta = manual.via_beta();
  const post::MazeRefineStats rs = post::maze_refine(sol, manual.capacities(), refine);

  EXPECT_EQ(r.refine.nets_kept, rs.nets_kept);
  EXPECT_EQ(r.refine.rounds_kept, rs.rounds_kept);
  ASSERT_EQ(r.solution.nets.size(), sol.nets.size());
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    EXPECT_EQ(r.solution.nets[n].design_net, sol.nets[n].design_net) << n;
    EXPECT_EQ(r.solution.nets[n].paths, sol.nets[n].paths) << n;
  }
}

TEST(Pipeline, DgrOnDesignWithoutRoutableNetsIsOkAndEmpty) {
  // Every net's pins share one g-cell, so the forest is empty. DGR trains
  // zero steps and extracts an empty solution, like the other routers.
  std::vector<design::Net> nets;
  nets.push_back({"a", {{2, 2}, {2, 2}}});
  nets.push_back({"b", {{5, 1}}});
  nets.push_back({"c", {{0, 7}, {0, 7}, {0, 7}}});
  const design::Design d("no_routable_nets", grid::GCellGrid::uniform(8, 8, 2, 2),
                         std::move(nets));
  ASSERT_TRUE(d.routable_nets().empty());
  for (const char* name : {"dgr", "cugr2-lite", "sproute-lite", "lagrangian", "partitioned"}) {
    RoutingContext ctx(d);
    Pipeline pipe(ctx);
    const PipelineResult r = pipe.run(name, fast_options());
    EXPECT_TRUE(r.stats.status.ok()) << name << ": " << r.stats.status.to_string();
    EXPECT_FALSE(r.stats.degraded) << name;
    EXPECT_TRUE(r.solution.nets.empty()) << name;
  }
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("dgr", fast_options());
  EXPECT_EQ(r.stats.router, "dgr");
  EXPECT_EQ(r.stats.counter("iterations"), 0.0);
  EXPECT_EQ(r.stats.counter("logits"), 0.0);
}

TEST(Pipeline, StagePlanSkipsOptionalStages) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r =
      pipe.run("cugr2-lite", {}, StagePlan{.maze_refine = false, .layer_assign = false});
  EXPECT_DOUBLE_EQ(r.stats.stage_seconds("maze_refine"), 0.0);
  EXPECT_DOUBLE_EQ(r.stats.stage_seconds("layer_assign"), 0.0);
  EXPECT_EQ(r.layers.via_count, 0);
  EXPECT_GT(r.metrics.wirelength, 0);
}

TEST(Pipeline, UnknownRouterNameYieldsEmptyResult) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("no-such-router");
  EXPECT_TRUE(r.solution.nets.empty());
  EXPECT_TRUE(r.stats.router.empty());
}

// ---------------------------------------------------------------------------
// Warm start
// ---------------------------------------------------------------------------

TEST(WarmStart, Cugr2RrrReentryNeverWorsensOverflowEdges) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = small_design(/*seed=*/31);
  RoutingContext ctx(d);
  Pipeline pipe(ctx);

  const PipelineResult prior = pipe.run("sproute-lite");
  ctx.set_warm_start(prior.solution);
  const std::unique_ptr<Router> cugr2 = make_router("cugr2-lite");
  const eval::RouteSolution warm = cugr2->route(ctx);
  EXPECT_TRUE(warm.connects_all_pins());
  EXPECT_EQ(cugr2->stats().counter("warm_started"), 1.0);
  // Cugr2Lite keeps its best-seen snapshot, which includes the warm-start
  // state itself, so the RRR re-entry cannot regress the edge count.
  EXPECT_LE(ctx.evaluate(warm).overflow_edges, prior.metrics.overflow_edges);
}

TEST(WarmStart, ColdRunClearsPreviousWarmState) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult a = pipe.run("cugr2-lite");
  ctx.set_warm_start(a.solution);
  const PipelineResult b = pipe.run("cugr2-lite");  // run() = cold contract
  EXPECT_EQ(b.stats.counter("warm_started"), 0.0);
}

// ---------------------------------------------------------------------------
// Typed failure paths, deadlines, degradation
// ---------------------------------------------------------------------------

TEST(Pipeline, UnknownRouterNameReportsNotFoundStatus) {
  util::set_log_level(util::LogLevel::kOff);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("no-such-router");
  EXPECT_EQ(r.stats.status.code(), StatusCode::kNotFound);
  util::set_log_level(util::LogLevel::kWarn);
}

/// A router whose every run ends in a caller error.
class InvalidArgumentRouter : public Router {
 public:
  std::string_view name() const override { return "invalid-argument"; }
  eval::RouteSolution route(RoutingContext&) override {
    reset_stats();
    stats_.status = Status(StatusCode::kInvalidArgument, "bad request");
    return {};
  }
};

TEST(Pipeline, NonDegradableStatusSurfacesInvalidArgumentNotFallback) {
  // A caller error must surface as a typed status, never silently degrade
  // to the configured fallback engine.
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  ASSERT_FALSE(pipe.options().fallback_router.empty());
  InvalidArgumentRouter router;
  const PipelineResult r = pipe.run(router);
  EXPECT_EQ(r.stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(r.stats.degraded);
  EXPECT_TRUE(r.solution.nets.empty());
  EXPECT_GT(r.stats.peak_rss_bytes, 0u);  // failure paths still report memory
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(StageBudget, ExhaustedDgrBudgetDegradesToFallback) {
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  ctx.set_deadline(expired_deadline());  // expires before the first iteration
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("dgr", fast_options());
  // The route stage timed out, the pipeline degraded to cugr2-lite through
  // the registry (warm-started from DGR's last healthy extraction), and the
  // run still produced full eval metrics.
  EXPECT_TRUE(r.stats.degraded);
  EXPECT_EQ(r.stats.router, "dgr");
  EXPECT_TRUE(r.stats.status.ok()) << r.stats.status.to_string();
  EXPECT_EQ(r.stats.counter("degraded"), 1.0);
  EXPECT_GT(r.stats.stage_seconds("fallback_route"), 0.0);
  ASSERT_FALSE(r.solution.nets.empty());
  EXPECT_TRUE(r.solution.connects_all_pins());
  expect_direction_legal(r.solution, d.grid());
  EXPECT_GT(r.metrics.wirelength, 0);
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(StageBudget, DisabledFallbackSurfacesStageTimeout) {
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  ctx.set_deadline(expired_deadline());
  PipelineOptions popts;
  popts.fallback_router.clear();
  Pipeline pipe(ctx, popts);
  const PipelineResult r = pipe.run("dgr", fast_options());
  EXPECT_EQ(r.stats.status.code(), StatusCode::kStageTimeout);
  EXPECT_FALSE(r.stats.degraded);
  // The solver's best-checkpoint contract still yields a usable solution.
  ASSERT_FALSE(r.solution.nets.empty());
  EXPECT_TRUE(r.solution.connects_all_pins());
  EXPECT_GT(r.metrics.wirelength, 0);
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(StageBudget, BudgetedBaselineMarksDegradedWithoutFallback) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  ctx.set_deadline(expired_deadline());
  Pipeline pipe(ctx);
  // cugr2-lite cut short by the deadline still returns its whole initial
  // pass; it is marked degraded but needs no fallback (status stays OK).
  const PipelineResult r = pipe.run("cugr2-lite");
  EXPECT_TRUE(r.stats.degraded);
  EXPECT_TRUE(r.stats.status.ok());
  EXPECT_DOUBLE_EQ(r.stats.stage_seconds("fallback_route"), 0.0);
  EXPECT_TRUE(r.solution.connects_all_pins());
}

TEST(StageBudget, ExpiredDeadlineStopsLagrangianAfterItsFirstRound) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  ctx.set_deadline(expired_deadline());
  Pipeline pipe(ctx);
  // Round 0 always completes, so the kept solution is whole; the deadline
  // stops the subgradient loop before round 1 and marks the run degraded.
  const PipelineResult r = pipe.run("lagrangian");
  EXPECT_TRUE(r.stats.degraded);
  EXPECT_TRUE(r.stats.status.ok()) << r.stats.status.to_string();
  EXPECT_EQ(r.stats.counter("rounds"), 1.0);
  EXPECT_DOUBLE_EQ(r.stats.stage_seconds("fallback_route"), 0.0);
  EXPECT_TRUE(r.solution.connects_all_pins());
}

// ---------------------------------------------------------------------------
// Validation gate
// ---------------------------------------------------------------------------

TEST(ValidationGate, CleanRunValidatesAndStaysOk) {
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  const PipelineResult r = pipe.run("dgr", fast_options());
  EXPECT_TRUE(r.validation.status.ok());
  EXPECT_TRUE(r.validation.demand_consistent);
  EXPECT_EQ(r.stats.repaired_nets, 0);
  EXPECT_GT(r.validation.checked_nets, 0);
  bool has_validate_stage = false;
  for (const auto& s : r.stats.stages) has_validate_stage |= (s.stage == "validate");
  EXPECT_TRUE(has_validate_stage);
}

TEST(ValidationGate, RepairsDeliberatelyBrokenNet) {
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  const std::unique_ptr<Router> router = make_router("cugr2-lite");
  eval::RouteSolution sol = router->route(ctx);
  ASSERT_FALSE(sol.nets.empty());

  // Break one net outright: drop its geometry while the live demand still
  // counts it. The gate must flag both the net and the accounting drift.
  sol.nets[0].paths.clear();
  const ValidationReport before = validate_solution(ctx, sol);
  EXPECT_EQ(before.status.code(), StatusCode::kValidationFailed);
  ASSERT_EQ(before.broken_nets, std::vector<std::size_t>{0});
  EXPECT_FALSE(before.demand_consistent);

  // Resync (what the pipeline does on drift), then repair.
  ctx.reset_demand();
  ctx.commit(sol);
  const std::int64_t repaired = repair_broken_nets(ctx, sol, before.broken_nets);
  EXPECT_EQ(repaired, 1);
  const ValidationReport after = validate_solution(ctx, sol);
  EXPECT_TRUE(after.status.ok()) << after.status.to_string();
  EXPECT_TRUE(sol.connects_all_pins());
  expect_direction_legal(sol, d.grid());
  util::set_log_level(util::LogLevel::kWarn);
}

/// A router that routes with sproute-lite, then guts its first net's
/// geometry while the live demand still counts it.
class GuttingRouter : public Router {
 public:
  std::string_view name() const override { return "gutting"; }
  eval::RouteSolution route(RoutingContext& ctx) override {
    reset_stats();
    eval::RouteSolution sol = inner_->route(ctx);
    if (!sol.nets.empty()) sol.nets[0].paths.clear();
    return sol;
  }

 private:
  std::unique_ptr<Router> inner_ = make_router("sproute-lite");
};

TEST(ValidationGate, BrokenRouteIsRepairedInsidePipelineRun) {
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = small_design();
  RoutingContext ctx(d);
  Pipeline pipe(ctx);
  GuttingRouter router;
  const PipelineResult repaired = pipe.run(router);
  ASSERT_FALSE(repaired.solution.nets.empty());
  EXPECT_EQ(repaired.stats.repaired_nets, 1);
  EXPECT_TRUE(repaired.stats.status.ok()) << repaired.stats.status.to_string();
  EXPECT_TRUE(repaired.solution.connects_all_pins());
  EXPECT_TRUE(repaired.validation.status.ok());
  util::set_log_level(util::LogLevel::kWarn);
}

}  // namespace
}  // namespace dgr::pipeline
