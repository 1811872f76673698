// End-to-end integration tests: the full DGR pipeline against the exact ILP
// oracle (the Table 1 claim at test scale), against the sequential baselines
// on a congested case (the Table 2 claim in miniature), and through the
// complete post-processing stack. All routers are constructed through the
// pipeline registry; the ILP oracle shares the context's forest/capacities.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "design/generator.hpp"
#include "design/io.hpp"
#include "ilp/routing_ilp.hpp"
#include "pipeline/adapters.hpp"
#include "pipeline/context.hpp"
#include "pipeline/pipeline.hpp"
#include "util/log.hpp"

namespace dgr {
namespace {

const pipeline::StagePlan kRouteOnly{.maze_refine = false, .layer_assign = false};

struct Table1Case {
  std::unique_ptr<design::Design> design;
  std::unique_ptr<pipeline::RoutingContext> ctx;
  std::unique_ptr<pipeline::Pipeline> pipe;
  dag::ForestOptions fopts;  ///< one L-shape per pair, no via demand
};

Table1Case make_case(int grid, int cap_val, int nets, int box, std::uint64_t seed) {
  design::Table1Params params;
  params.grid_w = params.grid_h = grid;
  params.capacity = cap_val;
  params.num_nets = nets;
  params.box_size = box;
  auto inst = design::make_table1_instance(params, seed);
  Table1Case c;
  c.design = std::make_unique<design::Design>(std::move(inst.design));
  pipeline::ContextOptions copts;
  copts.capacities = std::move(inst.capacities);
  copts.via_beta = 0.0f;
  c.ctx = std::make_unique<pipeline::RoutingContext>(*c.design, std::move(copts));
  c.pipe = std::make_unique<pipeline::Pipeline>(*c.ctx);
  c.fopts.tree.congestion_shifted = false;
  return c;
}

/// DGR configured for the Table 1 protocol: ReLU overflow objective only,
/// argmax extraction (top_p below any single probability).
core::DgrConfig table1_config(int iters = 400) {
  core::DgrConfig config;
  config.activation = ad::Activation::kReLU;
  config.weight_overflow = 1.0f;
  config.weight_wirelength = 0.0f;  // all L candidates have equal WL anyway
  config.weight_via = 0.0f;
  config.iterations = iters;
  config.temperature_interval = iters / 10;
  return config;
}

pipeline::RouterOptions table1_router_options(const Table1Case& c, int iters = 400) {
  pipeline::RouterOptions ro;
  ro.dgr = table1_config(iters);
  ro.forest = c.fopts;
  return ro;
}

class DgrMatchesIlp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DgrMatchesIlp, OnSmallTable1Instances) {
  // 50 nets on a 50x50 grid: a 1-iteration DGR stays above the optimum on
  // seeds 2-5, so equality here is the optimiser's work.
  Table1Case c = make_case(50, 1, 50, 10, GetParam());
  // Exact optimum, on the identical candidate forest the DGR run uses.
  ilp::MilpOptions mopts;
  mopts.time_limit_seconds = 60.0;
  const ilp::RoutingIlpResult ilp_result =
      ilp::solve_routing_ilp(c.ctx->forest(c.fopts), c.ctx->capacities(), mopts);
  ASSERT_EQ(ilp_result.milp.status, ilp::LpStatus::kOptimal);

  // DGR through the pipeline; the context's via_beta = 0 makes
  // metrics.total_overflow exactly the Table 1 objective.
  const pipeline::PipelineResult r =
      c.pipe->run("dgr", table1_router_options(c), kRouteOnly);
  EXPECT_TRUE(r.solution.connects_all_pins());
  const double dgr_overflow = r.metrics.total_overflow;

  // The paper's Table 1: DGR reaches the ILP optimum.
  EXPECT_EQ(dgr_overflow, ilp_result.overflow)
      << "seed " << GetParam() << ": DGR " << dgr_overflow << " vs ILP "
      << ilp_result.overflow;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgrMatchesIlp, ::testing::Values(1, 2, 3, 4, 5));

TEST(Integration, DgrBeatsGreedyOnConflictLadder) {
  // N nets stacked on the same diagonal with capacity N/2: any coordinated
  // solver splits them evenly between the two L-shapes; an uncoordinated
  // argmax-of-random would overflow. DGR must find (near-)zero overflow.
  grid::GCellGrid grid = grid::GCellGrid::uniform(8, 8, 2, 3);
  std::vector<design::Net> nets;
  for (int i = 0; i < 6; ++i) {
    nets.push_back({"n" + std::to_string(i), {{0, 0}, {7, 7}}});
  }
  auto d = std::make_unique<design::Design>("ladder", std::move(grid), std::move(nets));
  pipeline::ContextOptions copts;
  copts.capacities.assign(static_cast<std::size_t>(d->grid().edge_count()), 3.0f);
  copts.via_beta = 0.0f;
  pipeline::RoutingContext ctx(*d, std::move(copts));
  pipeline::Pipeline pipe(ctx);
  pipeline::RouterOptions ro;
  ro.dgr = table1_config(500);
  ro.forest.tree.congestion_shifted = false;
  const pipeline::PipelineResult r = pipe.run("dgr", ro, kRouteOnly);
  EXPECT_DOUBLE_EQ(r.metrics.total_overflow, 0.0);
}

TEST(Integration, DgrHasFewerOverflowedEdgesThanCugr2LiteOnCongestedCase) {
  design::IspdLikeParams p;
  p.name = "mini_ispd19";
  p.grid_w = p.grid_h = 24;
  p.num_nets = 500;
  p.layers = 5;
  p.tracks_per_layer = 2;
  p.hotspots = 2;
  p.hotspot_affinity = 0.65;
  const design::Design d = design::generate_ispd_like(p, 909);
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);

  const pipeline::PipelineResult base = pipe.run("cugr2-lite", {}, kRouteOnly);

  pipeline::RouterOptions ro;
  ro.dgr.iterations = 300;
  ro.dgr.temperature_interval = 60;
  const pipeline::PipelineResult dgr_run = pipe.run("dgr", ro, kRouteOnly);

  // The paper's Table 2 headline: DGR leaves fewer overflowed edges than
  // CUGR2. Neither side gets maze refine, so the optimiser alone decides; a
  // 1-iteration DGR has more overflowed edges than cugr2-lite here. Total
  // overflow is not asserted: on this fixture it goes the other way.
  EXPECT_LT(dgr_run.metrics.overflow_edges, base.metrics.overflow_edges)
      << "DGR " << dgr_run.metrics.overflow_edges << " vs CUGR2-lite "
      << base.metrics.overflow_edges;
  EXPECT_TRUE(dgr_run.solution.connects_all_pins());
}

TEST(Integration, FullPipelineProducesThreeDMetrics) {
  design::IspdLikeParams p;
  p.num_nets = 200;
  p.grid_w = p.grid_h = 20;
  p.layers = 5;
  const design::Design d = design::generate_ispd_like(p, 31);
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  pipeline::RouterOptions ro;
  ro.dgr.iterations = 120;
  ro.dgr.temperature_interval = 30;
  const pipeline::PipelineResult r = pipe.run(
      "dgr", ro, pipeline::StagePlan{.maze_refine = true, .layer_assign = true});
  EXPECT_GT(r.stats.solver_bytes, 0u);  // forest + relaxation + AD tape
  EXPECT_GT(r.layers.via_count, 0);
  EXPECT_GT(r.metrics.wirelength, 0);
  EXPECT_GE(r.weighted_overflow, 0.0);
  EXPECT_GT(r.stats.stage_seconds("train"), 0.0);
  EXPECT_GT(r.stats.stage_seconds("eval"), 0.0);
}

TEST(Integration, SavedDesignReproducesRoutingRun) {
  design::IspdLikeParams p;
  p.num_nets = 80;
  p.grid_w = p.grid_h = 16;
  const design::Design d = design::generate_ispd_like(p, 13);
  std::stringstream ss;
  design::write_design(ss, d);
  const design::Design r = design::try_read_design(ss).take();

  auto run = [](const design::Design& dd) {
    pipeline::RoutingContext ctx(dd);
    pipeline::Pipeline pipe(ctx);
    pipeline::RouterOptions ro;
    ro.dgr.iterations = 50;
    return pipe.run("dgr", ro, kRouteOnly).metrics;
  };
  const eval::Metrics a = run(d);
  const eval::Metrics b = run(r);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.overflow_edges, b.overflow_edges);
  EXPECT_EQ(a.bends, b.bends);
}

TEST(Integration, SeedSpreadIsTightOnTable1Protocol) {
  // The paper reports DGR best == worst (to ~1e-5 relative) across 5 seeds on
  // the easy synthetic rows; assert a small absolute spread at test scale.
  Table1Case c = make_case(10, 2, 8, 4, 99);
  std::vector<double> results;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    pipeline::RouterOptions ro = table1_router_options(c, 300);
    ro.dgr.seed = seed;
    results.push_back(c.pipe->run("dgr", ro, kRouteOnly).metrics.total_overflow);
  }
  const double spread = *std::max_element(results.begin(), results.end()) -
                        *std::min_element(results.begin(), results.end());
  EXPECT_LE(spread, 1.0);
}

}  // namespace
}  // namespace dgr
