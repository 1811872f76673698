#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

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
#include "util/rng.hpp"
#include "maze_reference.hpp"

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

TEST(Maze, OutOfGridSourceOrTargetIsInvalidArgument) {
  const GCellGrid grid = GCellGrid::uniform(6, 4, 2, 1);
  auto unit = [](grid::EdgeId) { return 1.0; };
  for (const Point outside : {Point{-1, 0}, Point{6, 0}, Point{0, -1}, Point{0, 4},
                              Point{100000, 100000}}) {
    const MazeResult from = maze_route(grid, {{1, 1}, outside}, {2, 2}, unit);
    EXPECT_FALSE(from.found);
    EXPECT_TRUE(from.cells.empty());
    EXPECT_EQ(from.status.code(), StatusCode::kInvalidArgument);
    const MazeResult to = maze_route(grid, {{1, 1}}, outside, unit);
    EXPECT_FALSE(to.found);
    EXPECT_EQ(to.status.code(), StatusCode::kInvalidArgument);
  }
  // The engine stays usable after a rejected call.
  EXPECT_TRUE(maze_route(grid, {{0, 0}}, {5, 3}, unit).found);
}

TEST(Maze, ConnectRejectsEmptyAndOutOfGridPins) {
  const GCellGrid grid = GCellGrid::uniform(6, 6, 2, 1);
  auto unit = [](grid::EdgeId) { return 1.0; };
  const MazeConnection empty = maze_connect(grid, {}, unit);
  EXPECT_TRUE(empty.paths.empty());
  EXPECT_EQ(empty.status.code(), StatusCode::kInvalidArgument);
  const MazeConnection off = maze_connect(grid, {{1, 1}, {3, 3}, {6, 2}}, unit);
  EXPECT_TRUE(off.paths.empty());
  EXPECT_EQ(off.status.code(), StatusCode::kInvalidArgument);
  const MazeConnection lone_off = maze_connect(grid, {{-2, 1}}, unit);
  EXPECT_EQ(lone_off.status.code(), StatusCode::kInvalidArgument);
  const MazeConnection lone = maze_connect(grid, {{2, 1}, {2, 1}}, unit);
  EXPECT_TRUE(lone.paths.empty());
  EXPECT_TRUE(lone.status.ok());
}

// Differential check of the engine against the plain Dijkstra in
// maze_reference.hpp, on seeded grids and costs: the same inputs go to both
// and every output must be bitwise equal.
class MazeChecker {
 public:
  explicit MazeChecker(std::uint64_t seed) : rng_(seed) {}

  /// A grid of 1..24 cells a side.
  GCellGrid grid() {
    return GCellGrid::uniform(static_cast<int>(rng_.uniform_int(1, 24)),
                              static_cast<int>(rng_.uniform_int(1, 24)), 2, 1);
  }
  Point cell(const GCellGrid& g) {
    return {static_cast<geom::Coord>(rng_.uniform_int(0, g.width() - 1)),
            static_cast<geom::Coord>(rng_.uniform_int(0, g.height() - 1))};
  }
  /// Per-edge costs drawn from {0.5, 500.5, 1000.5}, so many paths tie;
  /// `walls` of the edges cost +inf.
  std::vector<double> tie_costs(const GCellGrid& g, double walls = 0.0) {
    std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
    for (double& c : cost) {
      c = rng_.uniform() < walls ? std::numeric_limits<double>::infinity()
                                 : 0.5 + 500.0 * static_cast<double>(rng_.uniform_int(0, 2));
    }
    return cost;
  }
  /// A random demand map and capacities for refine's price.
  std::pair<std::vector<double>, std::vector<float>> demand(const GCellGrid& g) {
    std::vector<double> d(static_cast<std::size_t>(g.edge_count()));
    std::vector<float> cap(d.size());
    for (std::size_t e = 0; e < d.size(); ++e) {
      cap[e] = static_cast<float>(rng_.uniform_int(0, 3));
      d[e] = static_cast<double>(rng_.uniform_int(0, 4)) + 0.5 * rng_.uniform_int(0, 1);
    }
    return {std::move(d), std::move(cap)};
  }
  std::vector<Point> cells(const GCellGrid& g, std::int64_t lo, std::int64_t hi) {
    std::vector<Point> out(static_cast<std::size_t>(rng_.uniform_int(lo, hi)));
    for (Point& p : out) p = cell(g);
    return out;
  }

  template <class Cost>
  static void expect_same_route(const GCellGrid& g, const std::vector<Point>& sources,
                                Point target, Cost cost) {
    const MazeResult want = reference::maze_route(g, sources, target, cost);
    const MazeResult got = maze_route(g, sources, target, cost);
    ASSERT_EQ(got.found, want.found);
    EXPECT_EQ(got.status.code(), want.status.code());
    EXPECT_EQ(got.status.message(), want.status.message());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost), std::bit_cast<std::uint64_t>(want.cost));
    EXPECT_EQ(got.cells, want.cells);
  }

 private:
  util::Rng rng_;
};

/// Refine's price (post::maze_reroute_net) over `others` plus a net's own
/// usage: 0.5 per unit of wire plus 500 per unit of overuse.
double refine_price(double others, double mine, float cap) {
  const double d = others + mine;
  const double c = cap;
  return 0.5 + 500.0 * (std::max(0.0, d + 1.0 - c) - std::max(0.0, d - c));
}

TEST(Maze, MatchesReferenceOnTieHeavyCosts) {
  MazeChecker check(0x3A2E);
  for (int trial = 0; trial < 300; ++trial) {
    const GCellGrid g = check.grid();
    const std::vector<double> cost = check.tie_costs(g, trial % 3 == 0 ? 0.3 : 0.0);
    auto price = [&](grid::EdgeId e) { return cost[static_cast<std::size_t>(e)]; };
    // Multi-source sets may repeat a cell and may hold the target.
    MazeChecker::expect_same_route(g, check.cells(g, 1, 6), check.cell(g), price);
  }
}

TEST(Maze, MatchesReferenceOnRefinePrices) {
  MazeChecker check(0x7E1F);
  for (int trial = 0; trial < 300; ++trial) {
    const GCellGrid g = check.grid();
    const auto [others, cap] = check.demand(g);
    auto price = [&others, &cap](grid::EdgeId e) {
      const auto i = static_cast<std::size_t>(e);
      return refine_price(others[i], 0.0, cap[i]);
    };
    const Point s = check.cell(g);
    MazeChecker::expect_same_route(g, {s}, check.cell(g), price);
    MazeChecker::expect_same_route(g, {s}, s, price);  // source = target
    MazeChecker::expect_same_route(g, {s, s, check.cell(g)}, check.cell(g), price);
  }
}

TEST(Maze, MatchesReferenceBehindWalls) {
  // +inf walls: every edge of one column (or row) is walled off, so the
  // far side is unreachable and both report the same typed status.
  MazeChecker check(0x9A11);
  for (int trial = 0; trial < 100; ++trial) {
    const GCellGrid g = check.grid();
    std::vector<double> cost = check.tie_costs(g);
    const bool column = trial % 2 == 0;
    const geom::Coord at = static_cast<geom::Coord>((column ? g.width() : g.height()) / 2);
    for (grid::EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto [a, b] = g.edge_cells(e);
      if (column ? (a.y == b.y && b.x == at) : (a.x == b.x && b.y == at)) {
        cost[static_cast<std::size_t>(e)] = std::numeric_limits<double>::infinity();
      }
    }
    auto price = [&](grid::EdgeId e) { return cost[static_cast<std::size_t>(e)]; };
    MazeChecker::expect_same_route(g, check.cells(g, 1, 3), check.cell(g), price);
  }
}

TEST(Maze, ConnectMatchesReferenceWithOnPathHook) {
  MazeChecker check(0xC0DE);
  for (int trial = 0; trial < 150; ++trial) {
    const GCellGrid g = check.grid();
    const auto [others, cap] = check.demand(g);
    const std::vector<Point> pins = check.cells(g, 1, 8);
    // Each side keeps its own usage map, fed by its on-path hook, so the
    // later legs see the earlier ones exactly as maze_reroute_net does.
    std::vector<double> ref_mine(others.size(), 0.0);
    const MazeConnection want = reference::maze_connect(
        g, pins,
        [&](grid::EdgeId e) {
          const auto i = static_cast<std::size_t>(e);
          return refine_price(others[i], ref_mine[i], cap[i]);
        },
        [&](const dag::PatternPath& path) {
          for (const grid::EdgeId e : path.edges(g)) ref_mine[static_cast<std::size_t>(e)] += 1.0;
        });
    EdgeUsage& mine = MazeWorkspace::local().usage();
    mine.reset(g);
    const MazeConnection got = maze_connect(
        g, pins,
        [&](grid::EdgeId e) {
          const auto i = static_cast<std::size_t>(e);
          return refine_price(others[i], mine[e], cap[i]);
        },
        [&](const dag::PatternPath& path) { mine.add(g, path); });
    EXPECT_EQ(got.status.code(), want.status.code());
    EXPECT_EQ(got.paths, want.paths) << "trial " << trial;
  }
}

TEST(Maze, ConnectMatchesReferenceBehindWalls) {
  MazeChecker check(0xBEEF);
  for (int trial = 0; trial < 100; ++trial) {
    const GCellGrid g = check.grid();
    const std::vector<double> cost = check.tie_costs(g, 0.35);
    auto price = [&](grid::EdgeId e) { return cost[static_cast<std::size_t>(e)]; };
    const std::vector<Point> pins = check.cells(g, 1, 5);
    const MazeConnection want = reference::maze_connect(g, pins, price);
    const MazeConnection got = maze_connect(g, pins, price);
    EXPECT_EQ(got.status.code(), want.status.code());
    EXPECT_EQ(got.status.message(), want.status.message());
    EXPECT_EQ(got.paths, want.paths) << "trial " << trial;
  }
}

TEST(Maze, PerThreadWorkspacesMatchASerialRun) {
  // Four threads search at once, each on its own workspace, over grids of
  // different sizes (so each workspace grows while the others search); every
  // result must equal the serial run of the same seeded searches.
  constexpr int kThreads = 4;
  constexpr int kSearches = 200;
  auto run = [](int thread) {
    MazeChecker check(0x5EED + static_cast<std::uint64_t>(thread));
    std::vector<MazeResult> out;
    for (int i = 0; i < kSearches; ++i) {
      const GCellGrid g = check.grid();
      const std::vector<double> cost = check.tie_costs(g, i % 4 == 0 ? 0.2 : 0.0);
      const std::vector<Point> sources = check.cells(g, 1, 4);
      out.push_back(maze_route(g, sources, check.cell(g), [&](grid::EdgeId e) {
        return cost[static_cast<std::size_t>(e)];
      }));
    }
    return out;
  };
  std::vector<std::vector<MazeResult>> serial;
  for (int t = 0; t < kThreads; ++t) serial.push_back(run(t));
  std::vector<std::vector<MazeResult>> threaded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { threaded[static_cast<std::size_t>(t)] = run(t); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < serial.size(); ++t) {
    for (std::size_t i = 0; i < serial[t].size(); ++i) {
      const MazeResult& want = serial[t][i];
      const MazeResult& got = threaded[t][i];
      EXPECT_EQ(got.found, want.found) << t << "/" << i;
      EXPECT_EQ(got.status.code(), want.status.code()) << t << "/" << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost), std::bit_cast<std::uint64_t>(want.cost))
          << t << "/" << i;
      EXPECT_EQ(got.cells, want.cells) << t << "/" << i;
    }
  }
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
