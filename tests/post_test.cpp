#include <gtest/gtest.h>

#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "post/layer_assign.hpp"
#include "post/maze_refine.hpp"
#include "routers/cugr2lite.hpp"

namespace dgr::post {
namespace {

using design::Design;
using design::Net;
using eval::NetRoute;
using eval::RouteSolution;
using geom::Point;
using grid::Dir;
using grid::GCellGrid;

/// Hand-built solution: one net with an L route, one straight net.
struct Fixture {
  std::unique_ptr<Design> design;
  RouteSolution sol;

  static Fixture make() {
    Fixture fx;
    GCellGrid grid = GCellGrid::uniform(8, 8, 4, 3);
    std::vector<Net> nets;
    nets.push_back({"l", {{0, 0}, {4, 4}}});
    nets.push_back({"s", {{1, 6}, {6, 6}}});
    fx.design = std::make_unique<Design>("fx", std::move(grid), std::move(nets));
    fx.sol.design = fx.design.get();
    NetRoute l;
    l.design_net = 0;
    l.paths.push_back(dag::PatternPath{{{0, 0}, {4, 0}, {4, 4}}});
    NetRoute s;
    s.design_net = 1;
    s.paths.push_back(dag::PatternPath{{{1, 6}, {6, 6}}});
    fx.sol.nets = {l, s};
    return fx;
  }
};

TEST(LayerAssign, LegsGoToMatchingDirectionLayers) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  ASSERT_EQ(la.leg_layers.size(), 2u);
  ASSERT_EQ(la.leg_layers[0].size(), 2u);  // two legs of the L
  ASSERT_EQ(la.leg_layers[1].size(), 1u);
  const auto& layers = fx.design->grid().layers();
  // Leg 0 of net 0 is horizontal, leg 1 vertical, net 1's single leg horizontal.
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[0][0])].dir, Dir::kHorizontal);
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[0][1])].dir, Dir::kVertical);
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[1][0])].dir, Dir::kHorizontal);
}

TEST(LayerAssign, ViaCountCoversPinAccessAndBends) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  // Net 0's bend joins an H layer and a V layer (>= 1 apart) and its far pin
  // needs access from the V layer: at least 2 vias. Net 1 can sit entirely on
  // the pin layer.
  EXPECT_GE(la.via_count, 2);
  // Sanity upper bound: no junction can need more than L-1 vias, and we have
  // few junctions.
  EXPECT_LE(la.via_count, 30);
}

TEST(LayerAssign, NoOverflowOnUncongestedFixture) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  EXPECT_EQ(la.overflowed_layer_edges, 0);
  EXPECT_EQ(la.nets_with_overflow, 0);
}

TEST(LayerAssign, SharedColumnSpreadsAcrossLayers) {
  // Many nets through the same vertical column: the DP must spread them over
  // the V layers instead of stacking them on one.
  GCellGrid grid = GCellGrid::uniform(4, 10, 6, 2);  // V layers: 1,3,5
  std::vector<Net> nets;
  RouteSolution sol;
  const int kNets = 6;
  for (int i = 0; i < kNets; ++i) {
    nets.push_back({"n" + std::to_string(i), {{1, 0}, {1, 9}}});
  }
  auto design = std::make_unique<Design>("col", std::move(grid), std::move(nets));
  sol.design = design.get();
  for (int i = 0; i < kNets; ++i) {
    NetRoute r;
    r.design_net = static_cast<std::size_t>(i);
    r.paths.push_back(dag::PatternPath{{{1, 0}, {1, 9}}});
    sol.nets.push_back(r);
  }
  const auto cap = design->capacities();
  const auto la = assign_layers(sol, cap);
  std::set<int> used;
  for (int i = 0; i < kNets; ++i) used.insert(la.leg_layers[static_cast<std::size_t>(i)][0]);
  EXPECT_GE(used.size(), 2u);  // spread across at least 2 V layers
}

TEST(LayerAssign, EmptyRoutesAreHandled) {
  GCellGrid grid = GCellGrid::uniform(4, 4, 4, 2);
  std::vector<Net> nets{{"n", {{0, 0}, {2, 2}}}};
  auto design = std::make_unique<Design>("e", std::move(grid), std::move(nets));
  RouteSolution sol;
  sol.design = design.get();
  sol.nets.push_back(NetRoute{0, {}});
  const auto la = assign_layers(sol, design->capacities());
  EXPECT_EQ(la.via_count, 0);
}

TEST(LayerAssign, EndToEndAfterRouter) {
  design::IspdLikeParams p;
  p.num_nets = 200;
  p.grid_w = p.grid_h = 20;
  p.layers = 5;
  const Design d = design::generate_ispd_like(p, 55);
  const auto cap = d.capacities();
  routers::Cugr2Lite router(d, cap);
  const RouteSolution sol = router.route();
  const auto la = assign_layers(sol, cap);
  EXPECT_EQ(la.leg_layers.size(), sol.nets.size());
  EXPECT_GT(la.via_count, 0);
  // Every leg got a real layer of the right direction.
  const auto& layers = d.grid().layers();
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    std::size_t flat = 0;
    for (const dag::PatternPath& path : sol.nets[n].paths) {
      for (std::size_t k = 0; k + 1 < path.waypoints.size(); ++k) {
        const Point a = path.waypoints[k];
        const Point b = path.waypoints[k + 1];
        if (a == b) continue;
        const int layer = la.leg_layers[n][flat++];
        ASSERT_GE(layer, 0);
        ASSERT_LT(layer, d.grid().layer_count());
        const Dir want = (a.y == b.y) ? Dir::kHorizontal : Dir::kVertical;
        EXPECT_EQ(layers[static_cast<std::size_t>(layer)].dir, want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Maze refinement
// ---------------------------------------------------------------------------

/// A deliberately bad solution: both nets stacked on the same straight line
/// across a capacity-1 grid.
struct CongestedFixture {
  std::unique_ptr<Design> design;
  std::vector<float> cap;
  RouteSolution sol;

  static CongestedFixture make() {
    CongestedFixture fx;
    GCellGrid grid = GCellGrid::uniform(8, 8, 2, 1);
    std::vector<Net> nets;
    nets.push_back({"a", {{0, 3}, {7, 3}}});
    nets.push_back({"b", {{0, 3}, {7, 3}}});
    fx.design = std::make_unique<Design>("cong", std::move(grid), std::move(nets));
    fx.cap.assign(static_cast<std::size_t>(fx.design->grid().edge_count()), 1.0f);
    fx.sol.design = fx.design.get();
    for (std::size_t i = 0; i < 2; ++i) {
      NetRoute r;
      r.design_net = i;
      r.paths.push_back(dag::PatternPath{{{0, 3}, {7, 3}}});
      fx.sol.nets.push_back(r);
    }
    return fx;
  }
};

TEST(MazeRefine, ReducesOverflowAndKeepsConnectivity) {
  CongestedFixture fx = CongestedFixture::make();
  const double before = fx.sol.demand(0.5f).total_overflow(fx.cap);
  EXPECT_GT(before, 0.0);
  MazeRefineOptions opts;
  const MazeRefineStats stats = maze_refine(fx.sol, fx.cap, opts);
  EXPECT_LE(stats.overflow_after, stats.overflow_before);
  EXPECT_LT(stats.overflow_after, before);
  EXPECT_TRUE(fx.sol.connects_all_pins());
  EXPECT_GT(stats.nets_rerouted, 0);
}

TEST(MazeRefine, NoopOnCleanSolution) {
  Fixture fx = Fixture::make();
  const auto cap = fx.design->capacities();
  const MazeRefineStats stats = maze_refine(fx.sol, cap);
  EXPECT_EQ(stats.nets_rerouted, 0);
  EXPECT_DOUBLE_EQ(stats.overflow_before, 0.0);
  EXPECT_DOUBLE_EQ(stats.overflow_after, 0.0);
}

TEST(MazeRefine, MonotoneOverRounds) {
  CongestedFixture fx = CongestedFixture::make();
  MazeRefineOptions opts;
  opts.max_rounds = 5;
  opts.via_beta = 0.0f;  // wire-only: bends on cap-1 edges are then free
  const MazeRefineStats stats = maze_refine(fx.sol, fx.cap, opts);
  EXPECT_LE(stats.overflow_after, stats.overflow_before);
  // Two parallel nets on a cap-1 grid can always be fully separated.
  EXPECT_DOUBLE_EQ(stats.overflow_after, 0.0);
}

/// A congested design routed by `cugr2-lite` with one rip-up round.
Design congested_design() {
  design::IspdLikeParams p;
  p.num_nets = 400;
  p.grid_w = p.grid_h = 18;
  p.layers = 5;
  p.tracks_per_layer = 2;
  p.hotspot_affinity = 0.7;
  return design::generate_ispd_like(p, 77);
}

RouteSolution route_one_rrr_round(const Design& d, const std::vector<float>& cap) {
  routers::Cugr2LiteOptions ropts;
  ropts.rrr_rounds = 1;
  routers::Cugr2Lite router(d, cap, ropts);
  return router.route();
}

TEST(MazeRefine, EndToEndAfterRouterOnCongestedCase) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  RouteSolution sol = route_one_rrr_round(d, cap);
  const MazeRefineStats stats = maze_refine(sol, cap);
  EXPECT_LE(stats.overflow_after, stats.overflow_before + 1e-9);
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(MazeRefine, KeptCountersAreZeroWhenRefineReturnsItsInput) {
  // Every round accepts some moves, but none beats the input's score, so
  // the best snapshot is the input: nothing is kept.
  const Design d = congested_design();
  const auto cap = d.capacities();
  RouteSolution sol = route_one_rrr_round(d, cap);
  const RouteSolution input = sol;
  const MazeRefineStats stats = maze_refine(sol, cap);
  EXPECT_GT(stats.rounds_run, 0);
  EXPECT_GT(stats.nets_improved, 0);
  EXPECT_EQ(stats.rounds_kept, 0);
  EXPECT_EQ(stats.nets_kept, 0);
  ASSERT_EQ(sol.nets.size(), input.nets.size());
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    EXPECT_EQ(sol.nets[n].paths, input.nets[n].paths) << n;
  }
}

TEST(MazeRefine, KeptCountersCountTheReturnedMoves) {
  CongestedFixture fx = CongestedFixture::make();
  const RouteSolution input = fx.sol;
  MazeRefineOptions opts;
  opts.max_rounds = 5;
  opts.via_beta = 0.0f;
  const MazeRefineStats stats = maze_refine(fx.sol, fx.cap, opts);
  std::int64_t changed = 0;
  for (std::size_t n = 0; n < fx.sol.nets.size(); ++n) {
    changed += fx.sol.nets[n].paths != input.nets[n].paths ? 1 : 0;
  }
  EXPECT_GT(changed, 0);
  EXPECT_EQ(stats.nets_kept, changed);
  EXPECT_LE(stats.nets_kept, stats.nets_improved);
  EXPECT_GE(stats.rounds_kept, 1);
  EXPECT_LE(stats.rounds_kept, stats.rounds_run);
}

}  // namespace
}  // namespace dgr::post
