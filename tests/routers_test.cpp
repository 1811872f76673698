#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>

#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "pipeline/context.hpp"
#include "pipeline/validate.hpp"
#include "post/maze_refine.hpp"
#include "routers/cugr2lite.hpp"
#include "routers/lagrangian.hpp"
#include "routers/maze.hpp"
#include "routers/sproute_lite.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"

namespace dgr::routers {
namespace {

using design::Design;
using design::Net;
using geom::Point;
using grid::GCellGrid;

// ---------------------------------------------------------------------------
// Maze routing primitive
// ---------------------------------------------------------------------------

TEST(Maze, FindsManhattanShortestPathOnUniformCosts) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  const MazeResult r = maze_route(grid, {{1, 1}}, {7, 5}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  EXPECT_EQ(r.cells.size(), 11u);
  EXPECT_EQ(r.cells.front(), (Point{1, 1}));
  EXPECT_EQ(r.cells.back(), (Point{7, 5}));
  for (std::size_t i = 0; i + 1 < r.cells.size(); ++i) {
    EXPECT_EQ(geom::manhattan(r.cells[i], r.cells[i + 1]), 1);
  }
}

TEST(Maze, DetoursAroundExpensiveWall) {
  const GCellGrid grid = GCellGrid::uniform(7, 7, 2, 1);
  // Wall of expensive vertical edges at y=3 except a gap at x=6.
  auto cost = [&](grid::EdgeId e) {
    const auto [a, b] = grid.edge_cells(e);
    if (a.x == b.x && std::min(a.y, b.y) == 3 && a.x != 6) return 1000.0;
    return 1.0;
  };
  const MazeResult r = maze_route(grid, {{0, 0}}, {0, 6}, cost);
  ASSERT_TRUE(r.found);
  EXPECT_LT(r.cost, 1000.0);  // went through the gap
  bool visits_gap_column = false;
  for (const Point& c : r.cells) visits_gap_column |= (c.x == 6);
  EXPECT_TRUE(visits_gap_column);
}

TEST(Maze, MultiSourcePicksNearest) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  const MazeResult r =
      maze_route(grid, {{0, 0}, {8, 8}}, {7, 7}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);  // from (8,8)
  EXPECT_EQ(r.cells.front(), (Point{8, 8}));
}

TEST(Maze, SourceEqualsTarget) {
  const GCellGrid grid = GCellGrid::uniform(5, 5, 2, 1);
  const MazeResult r = maze_route(grid, {{2, 2}}, {2, 2}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_EQ(r.cells.size(), 1u);
  EXPECT_TRUE(r.status.ok());
}

TEST(Maze, UnreachableTargetReportsTypedStatus) {
  // An all-infinite cost surface strands the target: the result must say
  // *why* there is no path, not just hand back an empty cell list.
  const GCellGrid grid = GCellGrid::uniform(6, 6, 2, 1);
  const MazeResult r = maze_route(grid, {{0, 0}}, {5, 5}, [](grid::EdgeId) {
    return std::numeric_limits<double>::infinity();
  });
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.cells.empty());
  EXPECT_EQ(r.status.code(), StatusCode::kUnreachableTarget);
  EXPECT_FALSE(r.status.message().empty());
}

TEST(Maze, EmptySourceSetIsInvalidArgument) {
  const GCellGrid grid = GCellGrid::uniform(6, 6, 2, 1);
  const MazeResult r = maze_route(grid, {}, {5, 5}, [](grid::EdgeId) { return 1.0; });
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(CompressCells, MergesCollinearRuns) {
  const std::vector<Point> cells{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}, {3, 2}};
  const dag::PatternPath p = compress_cells(cells);
  EXPECT_EQ(p.waypoints,
            (std::vector<Point>{{0, 0}, {2, 0}, {2, 2}, {3, 2}}));
  EXPECT_EQ(p.length(), 5);
  EXPECT_EQ(p.bend_count(), 2u);
}

TEST(CompressCells, SingleCell) {
  const dag::PatternPath p = compress_cells({{4, 4}});
  EXPECT_EQ(p.waypoints.size(), 2u);
  EXPECT_EQ(p.length(), 0);
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

Design easy_design() {
  design::IspdLikeParams p;
  p.name = "easy";
  p.grid_w = p.grid_h = 24;
  p.num_nets = 150;
  p.layers = 6;
  p.tracks_per_layer = 6;
  p.hotspot_affinity = 0.2;
  return design::generate_ispd_like(p, 101);
}

Design congested_design() {
  design::IspdLikeParams p;
  p.name = "congested";
  p.grid_w = p.grid_h = 20;
  p.num_nets = 500;
  p.layers = 5;
  p.tracks_per_layer = 2;
  p.hotspots = 2;
  p.hotspot_affinity = 0.7;
  return design::generate_ispd_like(p, 202);
}

template <typename Router>
eval::RouteSolution run_router(const Design& d) {
  Router router(d, d.capacities());
  return router.route();
}

// ---------------------------------------------------------------------------
// CUGR2-lite
// ---------------------------------------------------------------------------

TEST(Cugr2Lite, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<Cugr2Lite>(d);
  EXPECT_EQ(sol.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(Cugr2Lite, ZeroOverflowOnEasyDesign) {
  const Design d = easy_design();
  Cugr2Lite router(d, d.capacities());
  Cugr2LiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
  EXPECT_GT(stats.nets_rerouted, 0);
}

TEST(Cugr2Lite, RrrReducesOverflow) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  Cugr2LiteOptions no_rrr;
  no_rrr.rrr_rounds = 0;
  Cugr2LiteOptions full;
  full.rrr_rounds = 6;
  Cugr2Lite a(d, cap, no_rrr), b(d, cap, full);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

TEST(Cugr2Lite, WirelengthNearHpwlOnEasyDesign) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<Cugr2Lite>(d);
  std::int64_t hpwl = 0;
  for (const std::size_t n : d.routable_nets()) {
    hpwl += geom::Rect::bounding_box(d.net(n).pins).hpwl();
  }
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_GE(m.wirelength, hpwl);
  EXPECT_LE(m.wirelength, 2 * hpwl);  // pattern routes stay near-minimal
}

TEST(Cugr2Lite, TimeBudgetStopsRrrButReturnsWholeSolution) {
  const Design d = congested_design();
  Cugr2LiteOptions opts;
  opts.rrr_rounds = 1000;  // would run forever without the deadline
  opts.deadline = util::Deadline(std::chrono::steady_clock::now());  // already expired
  Cugr2Lite router(d, d.capacities(), opts);
  Cugr2LiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  EXPECT_TRUE(stats.timed_out);
  EXPECT_EQ(stats.rounds_run, 0);  // initial pass completed, no RRR round ran
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, TimeBudgetStopsNegotiationButReturnsWholeSolution) {
  const Design d = congested_design();
  SpRouteLiteOptions opts;
  opts.max_rounds = 1000;
  opts.deadline = util::Deadline(std::chrono::steady_clock::now());
  SpRouteLite router(d, d.capacities(), opts);
  SpRouteLiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  EXPECT_TRUE(stats.timed_out);
  EXPECT_TRUE(sol.connects_all_pins());
}

// ---------------------------------------------------------------------------
// SPRoute-lite
// ---------------------------------------------------------------------------

TEST(SpRouteLite, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<SpRouteLite>(d);
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, NegotiationClearsEasyCongestion) {
  const Design d = easy_design();
  SpRouteLite router(d, d.capacities());
  SpRouteLiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
}

TEST(SpRouteLite, HistoryImprovesCongestedResult) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  SpRouteLiteOptions one_round;
  one_round.max_rounds = 0;
  SpRouteLiteOptions many;
  many.max_rounds = 8;
  SpRouteLite a(d, cap, one_round), b(d, cap, many);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

// ---------------------------------------------------------------------------
// Lagrangian router
// ---------------------------------------------------------------------------

TEST(Lagrangian, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<LagrangianRouter>(d);
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(Lagrangian, PricesResolveEasyCongestion) {
  const Design d = easy_design();
  LagrangianRouter router(d, d.capacities());
  LagrangianStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
  EXPECT_GT(stats.rounds_run, 0);
}

TEST(Lagrangian, MoreRoundsNeverWorse) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  LagrangianOptions few;
  few.rounds = 2;
  LagrangianOptions many;
  many.rounds = 15;
  LagrangianRouter a(d, cap, few), b(d, cap, many);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  // The router keeps its best-seen primal solution, so more rounds can only
  // improve the kept overflow.
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

// ---------------------------------------------------------------------------
// Cross-router sanity
// ---------------------------------------------------------------------------

class AllRouters : public ::testing::TestWithParam<int> {};

TEST_P(AllRouters, EveryRouterRoutesEveryNetOfACongestedCase) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  eval::RouteSolution sol;
  switch (GetParam()) {
    case 0: sol = Cugr2Lite(d, cap).route(); break;
    case 1: sol = SpRouteLite(d, cap).route(); break;
    case 2: sol = LagrangianRouter(d, cap).route(); break;
  }
  ASSERT_EQ(sol.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(sol.connects_all_pins());
  for (const auto& net : sol.nets) {
    EXPECT_FALSE(net.paths.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Routers, AllRouters, ::testing::Values(0, 1, 2));


TEST(Cugr2Lite, ZPathsDoNotBreakRouting) {
  const Design d = easy_design();
  Cugr2LiteOptions opts;
  opts.paths.z_samples = 2;
  Cugr2Lite router(d, d.capacities(), opts);
  const eval::RouteSolution sol = router.route();
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, DeterministicAcrossRuns) {
  const Design d = easy_design();
  const auto cap = d.capacities();
  SpRouteLite a(d, cap), b(d, cap);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_EQ(ma.wirelength, mb.wirelength);
  EXPECT_EQ(ma.overflow_edges, mb.overflow_edges);
  EXPECT_EQ(ma.bends, mb.bends);
}

TEST(Lagrangian, RepairPhaseNeverWorsensOverflow) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  LagrangianOptions no_repair;
  no_repair.repair_rounds = 0;
  LagrangianOptions with_repair;
  with_repair.repair_rounds = 8;
  LagrangianRouter a(d, cap, no_repair), b(d, cap, with_repair);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

// ---------------------------------------------------------------------------
// Golden rip-up-and-reroute outputs: every reroute loop in the repo, run on
// one fixed congested fixture, must reproduce these routes exactly.
// ---------------------------------------------------------------------------

struct Golden {
  std::int64_t overflow_edges;
  double total_overflow;
  std::int64_t wirelength;
  std::int64_t bends;
  std::uint64_t hash;  ///< FNV-1a over every net, path and waypoint
};

Golden golden_of(const eval::RouteSolution& sol, const std::vector<float>& cap) {
  const eval::Metrics m = eval::compute_metrics(sol, cap);
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (const eval::NetRoute& net : sol.nets) {
    mix(static_cast<std::int64_t>(net.design_net));
    mix(static_cast<std::int64_t>(net.paths.size()));
    for (const dag::PatternPath& path : net.paths) {
      mix(static_cast<std::int64_t>(path.waypoints.size()));
      for (const Point& p : path.waypoints) {
        mix(p.x);
        mix(p.y);
      }
    }
  }
  return {m.overflow_edges, m.total_overflow, m.wirelength, m.bends, h};
}

void expect_golden(const eval::RouteSolution& sol, const std::vector<float>& cap,
                   const Golden& want, const char* run) {
  const Golden got = golden_of(sol, cap);
  EXPECT_EQ(got.overflow_edges, want.overflow_edges) << run;
  EXPECT_EQ(got.total_overflow, want.total_overflow) << run;
  EXPECT_EQ(got.wirelength, want.wirelength) << run;
  EXPECT_EQ(got.bends, want.bends) << run;
  EXPECT_EQ(got.hash, want.hash) << run;
}

/// `sol` with every `stride`-th net's paths removed, and the emptied slots.
eval::RouteSolution with_emptied_nets(eval::RouteSolution sol, std::size_t stride,
                                      std::vector<std::size_t>* emptied = nullptr) {
  for (std::size_t i = 0; i < sol.nets.size(); i += stride) {
    sol.nets[i].paths.clear();
    if (emptied != nullptr) emptied->push_back(i);
  }
  return sol;
}

/// Congested enough that every loop has victims, loose enough that the
/// Lagrangian repair and maze refinement accept some reroutes.
Design reroute_design() {
  design::IspdLikeParams p;
  p.name = "reroute";
  p.grid_w = p.grid_h = 24;
  p.num_nets = 250;
  p.layers = 5;
  p.tracks_per_layer = 3;
  p.hotspots = 2;
  p.hotspot_affinity = 0.6;
  return design::generate_ispd_like(p, 5);
}

TEST(Reroute, GoldenOutputsOnCongestedFixture) {
  util::set_log_level(util::LogLevel::kError);
  const Design d = reroute_design();
  const std::vector<float> cap = d.capacities();
  bool multi_pin = false;
  for (const std::size_t n : d.routable_nets()) {
    multi_pin |= geom::dedupe_points(d.net(n).pins).size() >= 3;
  }
  ASSERT_TRUE(multi_pin);

  Cugr2LiteStats cugr2_stats;
  const eval::RouteSolution cugr2 = Cugr2Lite(d, cap).route(&cugr2_stats);
  expect_golden(cugr2, cap, {15, 29.625, 1614, 403, 0x980f15619286c119ull},
                "cugr2-lite cold");
  EXPECT_GT(cugr2_stats.rounds_run, 0);

  SpRouteLiteStats sproute_stats;
  const eval::RouteSolution sproute = SpRouteLite(d, cap).route(&sproute_stats);
  expect_golden(sproute, cap, {19, 27.25, 1284, 383, 0x58d7c8c320d79cd0ull},
                "sproute-lite cold");
  EXPECT_GT(sproute_stats.rounds_run, 0);

  // Warm starts from the other engine's result with some nets missing, so
  // both the seeded and the cold-routed branches run.
  const eval::RouteSolution sproute_prior = with_emptied_nets(sproute, 7);
  Cugr2LiteStats cugr2_warm_stats;
  const eval::RouteSolution cugr2_warm =
      Cugr2Lite(d, cap).route(&cugr2_warm_stats, &sproute_prior);
  expect_golden(cugr2_warm, cap, {16, 31.75, 1566, 443, 0x8a33bd1075712decull},
                "cugr2-lite warm");
  EXPECT_GT(cugr2_warm_stats.nets_rerouted, 0);

  const eval::RouteSolution cugr2_prior = with_emptied_nets(cugr2, 7);
  SpRouteLiteStats sproute_warm_stats;
  const eval::RouteSolution sproute_warm =
      SpRouteLite(d, cap).route(&sproute_warm_stats, &cugr2_prior);
  expect_golden(sproute_warm, cap, {17, 24.375, 1308, 342, 0x45a839d636315b73ull},
                "sproute-lite warm");
  EXPECT_GT(sproute_warm_stats.reroutes, 0);

  const eval::RouteSolution lagrangian = LagrangianRouter(d, cap).route();
  expect_golden(lagrangian, cap, {22, 33.125, 1198, 280, 0x9149f561bee1bf44ull},
                "lagrangian");
  LagrangianOptions no_repair;
  no_repair.repair_rounds = 0;
  const eval::RouteSolution lagrangian_dual = LagrangianRouter(d, cap, no_repair).route();
  EXPECT_NE(golden_of(lagrangian, cap).hash, golden_of(lagrangian_dual, cap).hash);

  eval::RouteSolution refined = cugr2;
  const post::MazeRefineStats refine_stats = post::maze_refine(refined, cap);
  expect_golden(refined, cap, {12, 24.375, 1515, 376, 0xa13cd81c283f22ccull},
                "maze_refine");
  EXPECT_GT(refine_stats.nets_rerouted, 0);
  EXPECT_GT(refine_stats.nets_improved, 0);

  std::vector<std::size_t> broken;
  eval::RouteSolution repaired = with_emptied_nets(cugr2, 5, &broken);
  pipeline::RoutingContext ctx(d);
  ctx.commit(repaired);
  EXPECT_EQ(pipeline::repair_broken_nets(ctx, repaired, broken),
            static_cast<std::int64_t>(broken.size()));
  expect_golden(repaired, cap, {23, 32.5, 1590, 399, 0x5d10bba58eaeadf7ull},
                "repair_broken_nets");

  EXPECT_EQ(eval::nets_with_overflow(cugr2, cap), 46);
  EXPECT_EQ(eval::nets_with_overflow(sproute, cap), 50);
  EXPECT_EQ(eval::nets_with_overflow(lagrangian, cap), 58);
  util::set_log_level(util::LogLevel::kWarn);
}

}  // namespace
}  // namespace dgr::routers
