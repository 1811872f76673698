// Chaos suite (ctest -L chaos): every compiled-in fault-injection site,
// exercised at two or more plan seeds, must end in either full recovery
// (status OK, valid solution) or a typed Status — never a crash, hang, or
// silently wrong answer. Also locks down the determinism of the recovery
// paths: a divergence rollback replays bit-for-bit across worker counts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "design/generator.hpp"
#include "design/io.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/validate.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace dgr {
namespace {

using util::fault::FaultPlan;
using util::fault::FaultSpec;
using util::fault::ScopedPlan;

design::Design chaos_design(std::uint64_t seed = 77) {
  design::IspdLikeParams p;
  p.name = "chaos_small";
  p.grid_w = p.grid_h = 12;
  p.num_nets = 60;
  p.layers = 4;
  p.tracks_per_layer = 3;
  return design::generate_ispd_like(p, seed);
}

pipeline::RouterOptions fast_options() {
  pipeline::RouterOptions o;
  o.dgr.iterations = 30;
  o.dgr.temperature_interval = 10;
  return o;
}

const char kValidDgrd[] =
    "dgrd 1\ndesign t\ngrid 4 4 2\nlayer H 2\nlayer V 2\n"
    "nets 1\nnet n0 2 0 0 3 3\nend\n";

#define SKIP_WITHOUT_HOOKS()                                    \
  if (!util::fault::compiled_in()) {                            \
    GTEST_SKIP() << "built with -DDGR_FAULT_INJECTION=OFF";     \
  }

// ---------------------------------------------------------------------------
// Harness semantics
// ---------------------------------------------------------------------------

TEST(FaultHarness, DisarmedSitesNeverFire) {
  SKIP_WITHOUT_HOOKS();
  util::fault::disarm();
  EXPECT_FALSE(util::fault::should_fire("core.loss"));
  EXPECT_FALSE(DGR_FAULT_POINT("core.loss"));
}

TEST(FaultHarness, DrawsReplayBitForBit) {
  SKIP_WITHOUT_HOOKS();
  const FaultPlan plan{123, {{"x.site", 0.5, -1}}};
  auto draw_pattern = [&](const FaultPlan& p) {
    ScopedPlan chaos(p);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(util::fault::should_fire("x.site"));
    return fired;
  };
  const std::vector<bool> a = draw_pattern(plan);
  const std::vector<bool> b = draw_pattern(plan);
  EXPECT_EQ(a, b);
  // A different seed draws a different pattern (64 coin flips).
  const std::vector<bool> c = draw_pattern(FaultPlan{456, {{"x.site", 0.5, -1}}});
  EXPECT_NE(a, c);
}

TEST(FaultHarness, MaxFiresCapsInjections) {
  SKIP_WITHOUT_HOOKS();
  ScopedPlan chaos(FaultPlan{1, {{"x.capped", 1.0, 2}}});
  int fired = 0;
  for (int i = 0; i < 5; ++i) fired += util::fault::should_fire("x.capped") ? 1 : 0;
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(util::fault::hits("x.capped"), 5u);
  EXPECT_EQ(util::fault::fires("x.capped"), 2u);
}

// ---------------------------------------------------------------------------
// Parse boundary
// ---------------------------------------------------------------------------

TEST(Chaos, ParseFaultYieldsTypedStatus) {
  SKIP_WITHOUT_HOOKS();
  for (const std::uint64_t seed : {7ull, 99ull}) {
    ScopedPlan chaos(FaultPlan{seed, {{"io.parse", 1.0, -1}}});
    std::stringstream ss(kValidDgrd);
    const Result<design::Design> r = design::try_read_design(ss);
    ASSERT_FALSE(r.ok()) << "seed " << seed;
    EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
    EXPECT_GE(util::fault::fires("io.parse"), 1u);
  }
}

// ---------------------------------------------------------------------------
// Kernel boundary: numeric-health sentinels + checkpoint rollback
// ---------------------------------------------------------------------------

TEST(Chaos, LossNanRollsBackAndRecovers) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  const dag::DagForest forest = dag::DagForest::build(d, {});
  core::DgrConfig config;
  config.iterations = 30;
  config.temperature_interval = 10;
  for (const std::uint64_t seed : {7ull, 99ull}) {
    ScopedPlan chaos(FaultPlan{seed, {{"core.loss", 1.0, 1}}});
    core::DgrSolver solver(forest, d.capacities(), config);
    const core::TrainStats stats = solver.train();
    EXPECT_GE(util::fault::fires("core.loss"), 1u) << "seed " << seed;
    EXPECT_EQ(stats.rollbacks, 1) << "seed " << seed;
    EXPECT_TRUE(stats.status.ok()) << stats.status.to_string();
    const eval::RouteSolution sol = solver.extract();
    EXPECT_TRUE(sol.connects_all_pins());
  }
}

TEST(Chaos, GradientNanRollbackIsBitwiseDeterministicAcrossWorkers) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  const dag::DagForest forest = dag::DagForest::build(d, {});
  core::DgrConfig config;
  config.iterations = 30;
  config.temperature_interval = 10;
  config.record_telemetry = true;

  struct Outcome {
    std::vector<double> history;
    std::vector<float> logits;
    int rollbacks = 0;
    eval::RouteSolution solution;
  };
  auto run_at = [&](std::size_t workers) {
    util::set_worker_count(workers);
    // Re-arm per run so hit counters restart and the fault fires on the
    // same hit index every time.
    ScopedPlan chaos(FaultPlan{5, {{"core.grad", 1.0, 2}}});
    core::DgrSolver solver(forest, d.capacities(), config);
    Outcome out;
    const core::TrainStats stats = solver.train();
    for (const obs::IterationSample& s : stats.telemetry.samples()) {
      out.history.push_back(s.loss);
    }
    out.rollbacks = stats.rollbacks;
    out.logits = solver.logits();
    out.solution = solver.extract();
    EXPECT_GE(util::fault::fires("core.grad"), 1u);
    return out;
  };

  const Outcome ref = run_at(1);
  EXPECT_EQ(ref.rollbacks, 2);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const Outcome got = run_at(workers);
    EXPECT_EQ(got.rollbacks, ref.rollbacks) << workers;
    ASSERT_EQ(got.history.size(), ref.history.size()) << workers;
    for (std::size_t i = 0; i < ref.history.size(); ++i) {
      EXPECT_EQ(got.history[i], ref.history[i]) << "workers=" << workers << " iter=" << i;
    }
    ASSERT_EQ(got.logits.size(), ref.logits.size()) << workers;
    for (std::size_t i = 0; i < ref.logits.size(); ++i) {
      EXPECT_EQ(got.logits[i], ref.logits[i]) << "workers=" << workers << " logit=" << i;
    }
    ASSERT_EQ(got.solution.nets.size(), ref.solution.nets.size()) << workers;
    for (std::size_t n = 0; n < ref.solution.nets.size(); ++n) {
      ASSERT_EQ(got.solution.nets[n].paths.size(), ref.solution.nets[n].paths.size());
      for (std::size_t k = 0; k < ref.solution.nets[n].paths.size(); ++k) {
        EXPECT_EQ(got.solution.nets[n].paths[k].waypoints,
                  ref.solution.nets[n].paths[k].waypoints)
            << "workers=" << workers << " net=" << n << " path=" << k;
      }
    }
  }
  util::set_worker_count(0);
}

TEST(Chaos, RollbackAfterPlateauCheckIsBitwiseDeterministicAcrossWorkers) {
  // The paper schedule with plateau checks on: one NaN gradient lands after
  // the first check, the solver rolls back and replays, and the plateau
  // stop still ends the run identically at every worker count.
  SKIP_WITHOUT_HOOKS();
  // Sparser than chaos_design(), so the best check is overflow-free.
  design::IspdLikeParams p;
  p.name = "chaos_sparse";
  p.grid_w = p.grid_h = 12;
  p.num_nets = 40;
  p.layers = 4;
  p.tracks_per_layer = 4;
  const design::Design d = design::generate_ispd_like(p, 77);
  const dag::DagForest forest = dag::DagForest::build(d, {});
  core::DgrConfig config;
  config.record_telemetry = true;

  struct Outcome {
    core::TrainStats stats;
    std::vector<float> logits;
    eval::RouteSolution solution;
  };
  auto run_at = [&](std::size_t workers) {
    util::set_worker_count(workers);
    // Seed 4 at 1% fires once, on the 92nd gradient step.
    ScopedPlan chaos(FaultPlan{4, {{"core.grad", 0.01, 1}}});
    core::DgrSolver solver(forest, d.capacities(), config);
    Outcome out;
    out.stats = solver.train();
    out.logits = solver.logits();
    out.solution = solver.extract();
    return out;
  };

  const Outcome ref = run_at(1);
  ASSERT_EQ(ref.stats.rollbacks, 1);
  ASSERT_EQ(ref.stats.telemetry.rollbacks.size(), 1u);
  EXPECT_GT(ref.stats.telemetry.rollbacks[0].at_iteration, 50);
  EXPECT_TRUE(ref.stats.status.ok()) << ref.stats.status.to_string();
  EXPECT_EQ(ref.stats.stop_reason, core::StopReason::kPlateau);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const Outcome got = run_at(workers);
    EXPECT_EQ(got.stats.rollbacks, ref.stats.rollbacks) << workers;
    EXPECT_EQ(got.stats.iterations_run, ref.stats.iterations_run) << workers;
    EXPECT_EQ(got.stats.stop_reason, ref.stats.stop_reason) << workers;
    EXPECT_EQ(got.stats.checks, ref.stats.checks) << workers;
    EXPECT_EQ(got.stats.best_check_iteration, ref.stats.best_check_iteration) << workers;
    EXPECT_EQ(got.logits, ref.logits) << workers;
    ASSERT_EQ(got.solution.nets.size(), ref.solution.nets.size()) << workers;
    for (std::size_t n = 0; n < ref.solution.nets.size(); ++n) {
      ASSERT_EQ(got.solution.nets[n].paths.size(), ref.solution.nets[n].paths.size());
      for (std::size_t k = 0; k < ref.solution.nets[n].paths.size(); ++k) {
        EXPECT_EQ(got.solution.nets[n].paths[k].waypoints,
                  ref.solution.nets[n].paths[k].waypoints)
            << "workers=" << workers << " net=" << n << " path=" << k;
      }
    }
  }
  util::set_worker_count(0);
}

TEST(Chaos, ExhaustedRollbackBudgetReportsDivergenceStop) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  const dag::DagForest forest = dag::DagForest::build(d, {});
  core::DgrConfig config;
  config.max_rollbacks = 2;
  ScopedPlan chaos(FaultPlan{7, {{"core.loss", 1.0, -1}}});
  core::DgrSolver solver(forest, d.capacities(), config);
  const core::TrainStats stats = solver.train();
  EXPECT_EQ(stats.status.code(), StatusCode::kNumericDivergence);
  EXPECT_EQ(stats.stop_reason, core::StopReason::kDivergence);
  EXPECT_EQ(stats.rollbacks, 2);
  EXPECT_EQ(stats.checks, 0);
}

TEST(Chaos, RollbackBudgetExhaustionDegradesToFallback) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  for (const std::uint64_t seed : {7ull, 99ull}) {
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    // Every gradient step sees a NaN: the rollback budget exhausts and the
    // pipeline must degrade to cugr2-lite through the registry.
    ScopedPlan chaos(FaultPlan{seed, {{"core.grad", 1.0, -1}}});
    pipeline::RouterOptions opts = fast_options();
    opts.dgr.max_rollbacks = 1;
    const pipeline::PipelineResult result = pipe.run("dgr", opts);
    EXPECT_TRUE(result.stats.degraded) << "seed " << seed;
    EXPECT_EQ(result.stats.router, "dgr");
    EXPECT_TRUE(result.stats.status.ok()) << result.stats.status.to_string();
    EXPECT_EQ(result.stats.counter("degraded"), 1.0);
    ASSERT_FALSE(result.solution.nets.empty());
    EXPECT_TRUE(result.solution.connects_all_pins());
    EXPECT_GT(result.metrics.wirelength, 0);
  }
}

// ---------------------------------------------------------------------------
// Stage and allocation boundaries
// ---------------------------------------------------------------------------

TEST(Chaos, AllocationFaultDegradesToFallback) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  for (const std::uint64_t seed : {7ull, 99ull}) {
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    ScopedPlan chaos(FaultPlan{seed, {{"pipeline.alloc", 1.0, 1}}});
    const pipeline::PipelineResult result = pipe.run("dgr", fast_options());
    EXPECT_GE(util::fault::fires("pipeline.alloc"), 1u);
    EXPECT_TRUE(result.stats.degraded) << "seed " << seed;
    EXPECT_TRUE(result.stats.status.ok()) << result.stats.status.to_string();
    ASSERT_FALSE(result.solution.nets.empty());
    EXPECT_TRUE(result.solution.connects_all_pins());
  }
}

TEST(Chaos, StageFaultDegradesToFallback) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  ScopedPlan chaos(FaultPlan{3, {{"pipeline.stage", 1.0, 1}}});
  const pipeline::PipelineResult result = pipe.run("dgr", fast_options());
  EXPECT_TRUE(result.stats.degraded);
  EXPECT_TRUE(result.stats.status.ok()) << result.stats.status.to_string();
  EXPECT_GT(result.stats.stage_seconds("fallback_route"), 0.0);
  EXPECT_TRUE(result.solution.connects_all_pins());
}

TEST(Chaos, StageFaultWithoutFallbackSurfacesTypedStatus) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  pipeline::RoutingContext ctx(d);
  pipeline::PipelineOptions popts;
  popts.fallback_router.clear();  // degradation disabled
  pipeline::Pipeline pipe(ctx, popts);
  ScopedPlan chaos(FaultPlan{3, {{"pipeline.stage", 1.0, 1}}});
  const pipeline::PipelineResult result = pipe.run("dgr", fast_options());
  EXPECT_FALSE(result.stats.degraded);
  EXPECT_EQ(result.stats.status.code(), StatusCode::kFaultInjected);
  EXPECT_EQ(result.stats.router, "dgr");
}

// ---------------------------------------------------------------------------
// Validation gate
// ---------------------------------------------------------------------------

TEST(Chaos, ValidationFaultTriggersRepairAndRecovers) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  for (const std::uint64_t seed : {7ull, 99ull}) {
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    // The first validated net is (falsely) reported broken; the gate must
    // repair it and the re-validation must come back clean.
    ScopedPlan chaos(FaultPlan{seed, {{"pipeline.validate", 1.0, 1}}});
    const pipeline::PipelineResult result = pipe.run("cugr2-lite", fast_options());
    EXPECT_GE(util::fault::fires("pipeline.validate"), 1u);
    EXPECT_TRUE(result.stats.status.ok()) << result.stats.status.to_string();
    EXPECT_EQ(result.stats.repaired_nets, 1);
    EXPECT_TRUE(result.validation.status.ok());
    EXPECT_TRUE(result.solution.connects_all_pins());
  }
}

// ---------------------------------------------------------------------------
// Sweep: every injection point, two seeds, typed outcome or recovery
// ---------------------------------------------------------------------------

TEST(Chaos, EverySiteEndsInRecoveryOrTypedStatus) {
  SKIP_WITHOUT_HOOKS();
  const design::Design d = chaos_design();
  const std::vector<std::string> pipeline_sites = {
      "core.loss", "core.grad", "pipeline.alloc", "pipeline.stage", "pipeline.validate"};
  for (const std::uint64_t seed : {11ull, 42ull}) {
    for (const std::string& site : pipeline_sites) {
      ScopedPlan chaos(FaultPlan{seed, {{site, 1.0, 1}}});
      pipeline::RoutingContext ctx(d);
      pipeline::Pipeline pipe(ctx);
      const pipeline::PipelineResult result = pipe.run("dgr", fast_options());
      EXPECT_GE(util::fault::fires(site), 1u) << site << " seed " << seed;
      if (result.stats.status.ok()) {
        // Recovery: the solution must be genuinely usable.
        ASSERT_FALSE(result.solution.nets.empty()) << site;
        EXPECT_TRUE(result.solution.connects_all_pins()) << site;
      } else {
        EXPECT_NE(result.stats.status.code(), StatusCode::kOk) << site;
        EXPECT_FALSE(result.stats.status.message().empty()) << site;
      }
    }
    // The parse boundary, driven separately from the routing pipeline.
    ScopedPlan chaos(FaultPlan{seed, {{"io.parse", 1.0, 1}}});
    std::stringstream ss(kValidDgrd);
    const Result<design::Design> r = design::try_read_design(ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  }
}

}  // namespace
}  // namespace dgr
