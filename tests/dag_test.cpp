#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dag/forest.hpp"
#include "dag/path.hpp"
#include "dag/tree_candidates.hpp"
#include "design/generator.hpp"
#include "util/parallel.hpp"

namespace dgr::dag {
namespace {

using design::Design;
using design::Net;
using geom::Point;
using grid::GCellGrid;

Design small_design() {
  GCellGrid grid = GCellGrid::uniform(10, 10, 4, 2);
  std::vector<Net> nets;
  nets.push_back({"n0", {{0, 0}, {4, 3}}});
  nets.push_back({"n1", {{1, 8}, {6, 2}, {8, 8}}});
  nets.push_back({"local", {{5, 5}, {5, 5}}});
  nets.push_back({"straight", {{2, 2}, {2, 7}}});
  return Design("small", std::move(grid), std::move(nets));
}

// ---------------------------------------------------------------------------
// Pattern path enumeration
// ---------------------------------------------------------------------------

TEST(PatternPath, DegenerateSameCell) {
  const auto paths = enumerate_paths({3, 3}, {3, 3});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 0);
  EXPECT_EQ(paths[0].bend_count(), 0u);
}

TEST(PatternPath, StraightLineHasOneCandidate) {
  const auto paths = enumerate_paths({1, 1}, {5, 1});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 4);
  EXPECT_EQ(paths[0].bend_count(), 0u);
}

TEST(PatternPath, DiagonalGivesTwoLShapes) {
  const auto paths = enumerate_paths({1, 1}, {4, 5});
  ASSERT_EQ(paths.size(), 2u);
  for (const PatternPath& p : paths) {
    EXPECT_EQ(p.length(), 7);
    EXPECT_EQ(p.bend_count(), 1u);
  }
  // The two bends are distinct (HV and VH orders).
  EXPECT_NE(paths[0].waypoints[1], paths[1].waypoints[1]);
  EXPECT_EQ(paths[0].waypoints[1], (Point{4, 1}));  // horizontal-first
  EXPECT_EQ(paths[1].waypoints[1], (Point{1, 5}));  // vertical-first
}

TEST(PatternPath, ZSamplesAddJoggedPaths) {
  PathEnumOptions opts;
  opts.z_samples = 3;
  const auto paths = enumerate_paths({0, 0}, {6, 6}, opts);
  EXPECT_GT(paths.size(), 2u);
  const GCellGrid grid = GCellGrid::uniform(8, 8, 2, 1);
  for (const PatternPath& p : paths) {
    EXPECT_TRUE(path_is_valid(p, grid));
    EXPECT_EQ(p.length(), 12);  // monotone: all same length
    EXPECT_LE(p.bend_count(), 2u);
  }
  // No duplicates.
  std::set<std::vector<Point>> unique;
  for (const PatternPath& p : paths) unique.insert(p.waypoints);
  EXPECT_EQ(unique.size(), paths.size());
}

TEST(PatternPath, ZSamplesSkipNarrowSpans) {
  PathEnumOptions opts;
  opts.z_samples = 4;
  // |dx| = 1: no x strictly between -> HVH impossible; |dy| = 5 allows VHV.
  const auto paths = enumerate_paths({0, 0}, {1, 5}, opts);
  for (const PatternPath& p : paths) {
    EXPECT_LE(p.bend_count(), 2u);
  }
  EXPECT_GE(paths.size(), 3u);  // 2 L + at least 1 VHV
}

TEST(PatternPath, EdgesWalkIsContiguous) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  const auto paths = enumerate_paths({2, 3}, {7, 6});
  for (const PatternPath& p : paths) {
    const auto edges = p.edges(grid);
    EXPECT_EQ(edges.size(), 8u);  // manhattan distance
    std::set<grid::EdgeId> unique(edges.begin(), edges.end());
    EXPECT_EQ(unique.size(), edges.size());  // monotone: no repeats
  }
}

TEST(PatternPath, ValidityRejectsNonRectilinear) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  PatternPath diag{{{0, 0}, {3, 3}}};
  EXPECT_FALSE(path_is_valid(diag, grid));
  PatternPath dup{{{0, 0}, {0, 0}, {3, 0}}};
  EXPECT_FALSE(path_is_valid(dup, grid));
  PatternPath out{{{0, 0}, {12, 0}}};
  EXPECT_FALSE(path_is_valid(out, grid));
}

TEST(PatternPath, ValidityRejectsNonMonotone) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  PatternPath zigzag{{{0, 0}, {4, 0}, {4, 2}, {2, 2}}};  // x reverses
  EXPECT_FALSE(path_is_valid(zigzag, grid));
  PatternPath ok{{{0, 0}, {4, 0}, {4, 2}, {6, 2}}};
  EXPECT_TRUE(path_is_valid(ok, grid));
}

// ---------------------------------------------------------------------------
// Congestion estimate & tree candidates
// ---------------------------------------------------------------------------

TEST(CongestionEstimate, ConservesWireMass) {
  const Design d = small_design();
  const auto est = estimate_congestion(d);
  double total = 0.0;
  for (const float v : est) total += v;
  // Each routable net spreads (w + h) expected crossings = its HPWL.
  double expected = 0.0;
  for (const std::size_t n : d.routable_nets()) {
    expected += static_cast<double>(geom::Rect::bounding_box(d.net(n).pins).hpwl());
  }
  EXPECT_NEAR(total, expected, 1e-3);
}

TEST(CongestionEstimate, ZeroForLocalOnlyDesign) {
  GCellGrid grid = GCellGrid::uniform(5, 5, 2, 1);
  std::vector<Net> nets{{"l", {{2, 2}, {2, 2}}}};
  const Design d("x", std::move(grid), std::move(nets));
  for (const float v : estimate_congestion(d)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(TreeCandidates, FirstCandidateIsRsmtAndDeduped) {
  const Design d = small_design();
  TreeCandidateOptions opts;
  opts.congestion_shifted = true;
  opts.trunk_topology = true;
  const TreeCandidateGenerator gen(d, opts);
  const auto cands = gen.generate(1);  // the 3-pin net
  ASSERT_GE(cands.size(), 1u);
  EXPECT_TRUE(cands[0].is_spanning_tree());
  std::set<std::vector<std::pair<Point, Point>>> keys;
  for (const auto& t : cands) {
    EXPECT_TRUE(t.is_spanning_tree());
    keys.insert(t.canonical_edges());
  }
  EXPECT_EQ(keys.size(), cands.size());  // all distinct
}

TEST(TreeCandidates, TwoPinNetsGetOneOrTwoCandidates) {
  const Design d = small_design();
  const TreeCandidateGenerator gen(d, {});
  const auto cands = gen.generate(0);
  // Two pins: RSMT is the direct edge; shifting has no Steiner node to move.
  EXPECT_EQ(cands.size(), 1u);
}

// ---------------------------------------------------------------------------
// DagForest structure
// ---------------------------------------------------------------------------

TEST(DagForest, PoolsAreContiguousAndConsistent) {
  const Design d = small_design();
  ForestOptions opts;
  opts.tree.trunk_topology = true;
  const DagForest f = DagForest::build(d, opts);

  EXPECT_EQ(f.net_count(), d.routable_nets().size());
  const auto& offs = f.net_tree_offsets();
  ASSERT_EQ(offs.size(), f.net_count() + 1);
  EXPECT_EQ(offs.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(offs.back()), f.trees().size());

  // Trees grouped by net, subnets by tree, paths by subnet.
  for (std::size_t n = 0; n < f.net_count(); ++n) {
    for (std::int32_t t = offs[n]; t < offs[n + 1]; ++t) {
      EXPECT_EQ(f.trees()[static_cast<std::size_t>(t)].net, static_cast<std::int32_t>(n));
    }
  }
  std::int32_t expect_subnet = 0;
  for (std::size_t t = 0; t < f.trees().size(); ++t) {
    const TreeCandidate& tc = f.trees()[t];
    EXPECT_EQ(tc.subnet_begin, expect_subnet);
    EXPECT_LE(tc.subnet_begin, tc.subnet_end);
    expect_subnet = tc.subnet_end;
    for (std::int32_t s = tc.subnet_begin; s < tc.subnet_end; ++s) {
      EXPECT_EQ(f.subnets()[static_cast<std::size_t>(s)].tree, static_cast<std::int32_t>(t));
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(expect_subnet), f.subnets().size());

  std::int32_t expect_path = 0;
  for (std::size_t s = 0; s < f.subnets().size(); ++s) {
    const Subnet& sn = f.subnets()[s];
    EXPECT_EQ(sn.path_begin, expect_path);
    EXPECT_LT(sn.path_begin, sn.path_end);  // at least one candidate
    expect_path = sn.path_end;
    for (std::int32_t i = sn.path_begin; i < sn.path_end; ++i) {
      EXPECT_EQ(f.paths()[static_cast<std::size_t>(i)].subnet, static_cast<std::int32_t>(s));
      EXPECT_EQ(f.paths()[static_cast<std::size_t>(i)].tree, sn.tree);
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(expect_path), f.paths().size());
}

TEST(DagForest, PathDataMatchesGeometry) {
  const Design d = small_design();
  const DagForest f = DagForest::build(d);
  for (std::size_t i = 0; i < f.paths().size(); ++i) {
    const PathCandidate& pc = f.paths()[i];
    const PatternPath geo = f.path_geometry(i);
    EXPECT_TRUE(path_is_valid(geo, d.grid()));
    EXPECT_FLOAT_EQ(pc.wirelength, static_cast<float>(geo.length()));
    EXPECT_EQ(pc.turns, static_cast<std::int32_t>(geo.bend_count()));
    const Subnet& sn = f.subnets()[static_cast<std::size_t>(pc.subnet)];
    EXPECT_EQ(geo.waypoints.front(), sn.a);
    EXPECT_EQ(geo.waypoints.back(), sn.b);
  }
}

TEST(DagForest, IncidenceWeightsIncludeViaCharge) {
  const Design d = small_design();
  ForestOptions opts;
  opts.via_demand_beta = 0.8f;
  const DagForest f = DagForest::build(d, opts);
  for (std::size_t i = 0; i < f.paths().size(); ++i) {
    const PathCandidate& pc = f.paths()[i];
    double weight_sum = 0.0;
    for (std::uint32_t k = pc.inc_begin; k < pc.inc_end; ++k) {
      weight_sum += f.inc_weights()[k];
    }
    // Total = wirelength + beta/2 per via-adjacent edge. A bend in the path
    // interior charges 2 edges, a bend at the path end only 1.
    const double wire = pc.wirelength;
    EXPECT_GE(weight_sum, wire - 1e-5);
    EXPECT_LE(weight_sum, wire + 0.8 * pc.turns + 1e-5);
    if (pc.turns > 0) {
      EXPECT_GT(weight_sum, wire + 1e-6);
    }
  }
}

TEST(DagForest, ZeroBetaGivesUnitWeights) {
  const Design d = small_design();
  ForestOptions opts;
  opts.via_demand_beta = 0.0f;
  const DagForest f = DagForest::build(d, opts);
  for (const float w : f.inc_weights()) EXPECT_FLOAT_EQ(w, 1.0f);
}

TEST(DagForest, TransposeIsExactTranspose) {
  const Design d = small_design();
  const DagForest f = DagForest::build(d);
  // Collect (path, edge, weight) triples from both representations.
  std::map<std::pair<std::int32_t, grid::EdgeId>, float> fwd, bwd;
  for (std::size_t i = 0; i < f.paths().size(); ++i) {
    const PathCandidate& pc = f.paths()[i];
    for (std::uint32_t k = pc.inc_begin; k < pc.inc_end; ++k) {
      fwd[{static_cast<std::int32_t>(i), f.inc_edges()[k]}] += f.inc_weights()[k];
    }
  }
  const auto& eo = f.edge_inc_offsets();
  for (std::size_t e = 0; e + 1 < eo.size(); ++e) {
    for (std::uint32_t k = eo[e]; k < eo[e + 1]; ++k) {
      bwd[{f.edge_inc_paths()[k], static_cast<grid::EdgeId>(e)}] +=
          f.edge_inc_weights()[k];
    }
  }
  EXPECT_EQ(fwd.size(), bwd.size());
  for (const auto& [key, w] : fwd) {
    auto it = bwd.find(key);
    ASSERT_NE(it, bwd.end());
    EXPECT_FLOAT_EQ(it->second, w);
  }
}

TEST(DagForest, LocalNetsExcluded) {
  const Design d = small_design();
  const DagForest f = DagForest::build(d);
  for (std::size_t n = 0; n < f.net_count(); ++n) {
    EXPECT_FALSE(d.net(f.design_net(n)).is_local());
  }
}

TEST(DagForest, ParallelAndSerialBuildsAgree) {
  design::IspdLikeParams p;
  p.num_nets = 120;
  p.grid_w = 24;
  p.grid_h = 24;
  const Design d = design::generate_ispd_like(p, 9);
  // One worker runs the per-net for_each inline; four run it on the pool.
  util::set_worker_count(1);
  const DagForest a = DagForest::build(d);
  util::set_worker_count(4);
  const DagForest b = DagForest::build(d);
  util::set_worker_count(0);
  ASSERT_EQ(a.paths().size(), b.paths().size());
  ASSERT_EQ(a.trees().size(), b.trees().size());
  ASSERT_EQ(a.inc_edges().size(), b.inc_edges().size());
  EXPECT_EQ(a.inc_edges(), b.inc_edges());
  for (std::size_t i = 0; i < a.paths().size(); ++i) {
    EXPECT_EQ(a.paths()[i].subnet, b.paths()[i].subnet);
    EXPECT_FLOAT_EQ(a.paths()[i].wirelength, b.paths()[i].wirelength);
  }
}

TEST(DagForest, MemoryAccountingIsPositiveAndGrows) {
  design::IspdLikeParams small;
  small.num_nets = 50;
  design::IspdLikeParams big = small;
  big.num_nets = 500;
  const DagForest fs = DagForest::build(design::generate_ispd_like(small, 2));
  const DagForest fb = DagForest::build(design::generate_ispd_like(big, 2));
  EXPECT_GT(fs.memory_bytes(), 0u);
  EXPECT_GT(fb.memory_bytes(), fs.memory_bytes());
}

TEST(DagForest, ZShapesEnlargeThePool) {
  const Design d = small_design();
  ForestOptions base;
  ForestOptions zopts;
  zopts.paths.z_samples = 2;
  const DagForest a = DagForest::build(d, base);
  const DagForest b = DagForest::build(d, zopts);
  EXPECT_GT(b.paths().size(), a.paths().size());
  EXPECT_EQ(a.subnets().size(), b.subnets().size());
}


TEST(DagForest, AdaptiveExpansionTargetsCongestedSubnets) {
  // A hot column: many nets crossing the same region, plus one net far away.
  GCellGrid grid = GCellGrid::uniform(16, 16, 2, 1);  // base capacity 1
  std::vector<Net> nets;
  for (int i = 0; i < 8; ++i) {
    nets.push_back({"hot" + std::to_string(i), {{2, 2}, {6, 6}}});
  }
  nets.push_back({"cold", {{10, 10}, {14, 14}}});
  const Design d("adaptive", std::move(grid), std::move(nets));

  ForestOptions plain;
  plain.tree.congestion_shifted = false;
  ForestOptions adaptive = plain;
  adaptive.adaptive_expansion = true;

  const DagForest fp = DagForest::build(d, plain);
  const DagForest fa = DagForest::build(d, adaptive);
  EXPECT_GT(fa.paths().size(), fp.paths().size());

  // Hot nets gained candidates; the cold net did not.
  auto paths_of_net = [](const DagForest& f, std::size_t n) {
    std::size_t count = 0;
    for (const PathCandidate& pc : f.paths()) {
      if (pc.net == static_cast<std::int32_t>(n)) ++count;
    }
    return count;
  };
  EXPECT_GT(paths_of_net(fa, 0), paths_of_net(fp, 0));
  EXPECT_EQ(paths_of_net(fa, 8), paths_of_net(fp, 8));
}

TEST(DagForest, AdaptiveExpansionNoopOnQuietDesign) {
  GCellGrid grid = GCellGrid::uniform(20, 20, 4, 8);  // plenty of capacity
  std::vector<Net> nets{{"n", {{1, 1}, {6, 7}}}};
  const Design d("quiet", std::move(grid), std::move(nets));
  ForestOptions adaptive;
  adaptive.adaptive_expansion = true;
  const DagForest fa = DagForest::build(d, adaptive);
  const DagForest fp = DagForest::build(d, {});
  EXPECT_EQ(fa.paths().size(), fp.paths().size());
}


TEST(PatternPath, CShapesDetourOutsideTheBox) {
  const GCellGrid grid = GCellGrid::uniform(20, 20, 2, 1);
  PathEnumOptions opts;
  opts.c_samples = 2;
  opts.c_detour = 2;
  const auto paths = enumerate_paths({5, 5}, {10, 8}, opts, grid);
  // 2 L-shapes plus up to 8 C-shapes (2 samples x 4 sides).
  EXPECT_GT(paths.size(), 2u);
  const geom::Rect box = geom::Rect::bounding_box({Point{5, 5}, Point{10, 8}});
  bool any_outside = false;
  for (const PatternPath& p : paths) {
    EXPECT_TRUE(path_is_valid(p, grid, /*require_monotone=*/false));
    for (const Point& w : p.waypoints) {
      if (!box.contains(w)) any_outside = true;
    }
    // C-shapes pay exactly 2 * detour extra wirelength.
    EXPECT_GE(p.length(), geom::manhattan({5, 5}, {10, 8}));
  }
  EXPECT_TRUE(any_outside);
}

TEST(PatternPath, CShapesOnStraightSpanAreProperUs) {
  const GCellGrid grid = GCellGrid::uniform(12, 12, 2, 1);
  PathEnumOptions opts;
  opts.c_samples = 1;
  opts.c_detour = 1;
  const auto paths = enumerate_paths({3, 2}, {3, 9}, opts, grid);
  EXPECT_GE(paths.size(), 3u);  // straight + left U + right U
  for (const PatternPath& p : paths) {
    // No out-and-back: edge lists must never repeat an edge.
    const auto edges = p.edges(grid);
    std::set<grid::EdgeId> unique(edges.begin(), edges.end());
    EXPECT_EQ(unique.size(), edges.size());
  }
}

TEST(PatternPath, CShapesClampedAtGridBoundary) {
  const GCellGrid grid = GCellGrid::uniform(8, 8, 2, 1);
  PathEnumOptions opts;
  opts.c_samples = 3;
  opts.c_detour = 4;  // mostly off-grid
  const auto paths = enumerate_paths({0, 0}, {7, 7}, opts, grid);
  for (const PatternPath& p : paths) {
    EXPECT_TRUE(path_is_valid(p, grid, /*require_monotone=*/false));
  }
}

TEST(DagForest, CShapeForestStillConsistent) {
  const Design d = small_design();
  ForestOptions opts;
  opts.paths.c_samples = 1;
  opts.paths.c_detour = 1;
  const DagForest f = DagForest::build(d, opts);
  const DagForest base = DagForest::build(d, {});
  EXPECT_GT(f.paths().size(), base.paths().size());
  for (std::size_t i = 0; i < f.paths().size(); ++i) {
    const PatternPath geo = f.path_geometry(i);
    EXPECT_TRUE(path_is_valid(geo, d.grid(), /*require_monotone=*/false));
    EXPECT_FLOAT_EQ(f.paths()[i].wirelength, static_cast<float>(geo.length()));
  }
}

}  // namespace
}  // namespace dgr::dag
