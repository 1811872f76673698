// Partition subsystem tests (`ctest -L partition`): tiling/classification
// invariants of build_partition_plan, RegionSlice edge mapping, the
// DemandMap halo snapshot/merge byte-identity contract (including
// overlapping halos), and the PartitionedRouter's bitwise determinism
// across worker counts {1,2,4} at fixed partition counts {2,4} — the repo
// determinism contract extended to partition-parallel routing.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "design/generator.hpp"
#include "partition/partition.hpp"
#include "partition/router.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace dgr::partition {
namespace {

design::Design test_design(std::uint64_t seed = 99, int w = 32, int nets = 220) {
  design::IspdLikeParams p;
  p.name = "partition_case";
  p.grid_w = p.grid_h = w;
  p.num_nets = nets;
  p.layers = 5;
  p.tracks_per_layer = 3;
  p.hotspot_affinity = 0.6;
  return design::generate_ispd_like(p, seed);
}

pipeline::RouterOptions fast_options(int partitions, int halo = 2) {
  pipeline::RouterOptions o;
  o.cugr2.rrr_rounds = 3;
  o.partition.partitions = partitions;
  o.partition.halo = halo;
  return o;
}

/// Exact (bitwise) equality of two solutions: same nets, same paths, same
/// waypoints — no tolerance anywhere.
void expect_identical(const eval::RouteSolution& a, const eval::RouteSolution& b) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].design_net, b.nets[i].design_net);
    ASSERT_EQ(a.nets[i].paths.size(), b.nets[i].paths.size()) << "net " << i;
    for (std::size_t p = 0; p < a.nets[i].paths.size(); ++p) {
      EXPECT_EQ(a.nets[i].paths[p].waypoints, b.nets[i].paths[p].waypoints)
          << "net " << i << " path " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Plan invariants
// ---------------------------------------------------------------------------

TEST(PartitionPlan, CoresTileTheGridDisjointly) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 4;
  const PartitionPlan plan = build_partition_plan(d, cfg);
  ASSERT_EQ(plan.region_count(), 4u);

  // Every cell belongs to exactly one core; every halo contains its core.
  const grid::GCellGrid& g = d.grid();
  std::vector<int> owner(static_cast<std::size_t>(g.cell_count()), 0);
  for (const Region& r : plan.regions) {
    EXPECT_TRUE(r.halo.contains(r.core.lo));
    EXPECT_TRUE(r.halo.contains(r.core.hi));
    EXPECT_GE(r.halo.lo.x, 0);
    EXPECT_GE(r.halo.lo.y, 0);
    EXPECT_LT(r.halo.hi.x, g.width());
    EXPECT_LT(r.halo.hi.y, g.height());
    for (geom::Coord y = r.core.lo.y; y <= r.core.hi.y; ++y) {
      for (geom::Coord x = r.core.lo.x; x <= r.core.hi.x; ++x) {
        owner[static_cast<std::size_t>(g.cell_id({x, y}))] += 1;
      }
    }
  }
  for (const int n : owner) EXPECT_EQ(n, 1);
}

TEST(PartitionPlan, ClassifiesEveryNetConsistently) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 4;
  const PartitionPlan plan = build_partition_plan(d, cfg);

  std::size_t assigned = 0;
  for (const auto& nets : plan.region_nets) {
    assigned += nets.size();
    for (const std::size_t idx : nets) {
      const geom::Rect box = geom::Rect::bounding_box(d.net(idx).pins);
      const int r = plan.net_region[idx];
      ASSERT_GE(r, 0);
      // Every assigned net fits its region's halo window (cut-straddling
      // nets within the margin route region-locally; see DESIGN.md §11).
      EXPECT_TRUE(plan.regions[static_cast<std::size_t>(r)].halo.contains(box.lo));
      EXPECT_TRUE(plan.regions[static_cast<std::size_t>(r)].halo.contains(box.hi));
    }
  }
  for (const std::size_t idx : plan.cross_nets) {
    EXPECT_EQ(plan.net_region[idx], kNetCross);
    // Cross nets genuinely fit no single window.
    const geom::Rect box = geom::Rect::bounding_box(d.net(idx).pins);
    for (const Region& region : plan.regions) {
      EXPECT_FALSE(region.halo.contains(box.lo) && region.halo.contains(box.hi));
    }
  }
  EXPECT_EQ(assigned + plan.cross_nets.size(), d.routable_nets().size());
  // Local (non-routable) nets belong to no set.
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    if (d.net(i).is_local()) {
      EXPECT_EQ(plan.net_region[i], kNetLocal);
    }
  }
}

TEST(PartitionPlan, SmallGridsReduceTheRegionCount) {
  const design::Design d = test_design(/*seed=*/7, /*w=*/6, /*nets=*/20);
  PartitionConfig cfg;
  cfg.partitions = 16;
  cfg.min_region_extent = 4;
  const PartitionPlan plan = build_partition_plan(d, cfg);
  // A 6x6 grid cannot host 16 tiles of >= 4 cells extent.
  EXPECT_LT(plan.region_count(), 16u);
  EXPECT_GE(plan.region_count(), 1u);
}

TEST(PartitionPlan, CongestionSeedingIsAPureFunctionOfItsInputs) {
  const design::Design d = test_design();
  grid::DemandMap committed(d.grid());
  committed.add(d.grid().h_edge(3, 3), 5.0);
  committed.add(d.grid().v_edge(20, 20), 7.5);
  PartitionConfig cfg;
  cfg.partitions = 4;
  const PartitionPlan a = build_partition_plan(d, cfg, &committed);
  const PartitionPlan b = build_partition_plan(d, cfg, &committed);
  ASSERT_EQ(a.region_count(), b.region_count());
  for (std::size_t r = 0; r < a.region_count(); ++r) {
    EXPECT_EQ(a.regions[r].core, b.regions[r].core);
    EXPECT_EQ(a.regions[r].halo, b.regions[r].halo);
  }
  EXPECT_EQ(a.net_region, b.net_region);
  // Uniform seeding splits at midpoints regardless of the demand.
  cfg.seeding = Seeding::kUniform;
  const PartitionPlan u1 = build_partition_plan(d, cfg, &committed);
  const PartitionPlan u2 = build_partition_plan(d, cfg, nullptr);
  for (std::size_t r = 0; r < u1.region_count(); ++r) {
    EXPECT_EQ(u1.regions[r].core, u2.regions[r].core);
  }
}

// ---------------------------------------------------------------------------
// Region slices
// ---------------------------------------------------------------------------

TEST(RegionSlice, EdgeMappingMatchesParentGeometry) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 4;
  cfg.halo = 2;
  const PartitionPlan plan = build_partition_plan(d, cfg);
  const grid::GCellGrid& parent = d.grid();
  for (const Region& region : plan.regions) {
    const RegionSlice slice = slice_region(parent, region);
    ASSERT_EQ(slice.parent_edge.size(),
              static_cast<std::size_t>(slice.grid.edge_count()));
    for (grid::EdgeId e = 0; e < slice.grid.edge_count(); ++e) {
      const grid::EdgeId pe = slice.parent_edge[static_cast<std::size_t>(e)];
      ASSERT_NE(pe, grid::kInvalidEdge);
      // The parent edge joins the translated endpoints of the slice edge.
      const auto [sa, sb] = slice.grid.edge_cells(e);
      const geom::Point pa{static_cast<geom::Coord>(sa.x + slice.origin.x),
                           static_cast<geom::Coord>(sa.y + slice.origin.y)};
      const geom::Point pb{static_cast<geom::Coord>(sb.x + slice.origin.x),
                           static_cast<geom::Coord>(sb.y + slice.origin.y)};
      EXPECT_EQ(pe, parent.edge_between(pa, pb));
    }
  }
}

TEST(RegionSlice, CapacitiesAreClampedResiduals) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 2;
  const PartitionPlan plan = build_partition_plan(d, cfg);
  const RegionSlice slice = slice_region(d.grid(), plan.regions[0]);
  const std::vector<float> cap = d.capacities();

  grid::DemandMap committed(d.grid());
  const grid::EdgeId pe = slice.parent_edge[0];
  committed.add(pe, static_cast<double>(cap[static_cast<std::size_t>(pe)]) + 3.0);

  const std::vector<float> residual = slice_capacities(slice, cap, &committed);
  ASSERT_EQ(residual.size(), slice.parent_edge.size());
  EXPECT_FLOAT_EQ(residual[0], 0.0f);  // over-committed edge clamps at zero
  for (std::size_t e = 1; e < residual.size(); ++e) {
    EXPECT_FLOAT_EQ(residual[e], cap[static_cast<std::size_t>(slice.parent_edge[e])]);
  }
}

// ---------------------------------------------------------------------------
// Halo demand accounting (satellite): snapshot -> merge(+1) -> merge(-1)
// round-trips stay byte-identical on the 2^-20 quantization grid, including
// overlapping halos of neighbouring regions.
// ---------------------------------------------------------------------------

TEST(HaloDemand, SnapshotTransfersByteExactValues) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 2;
  cfg.halo = 3;
  const PartitionPlan plan = build_partition_plan(d, cfg);
  const RegionSlice slice = slice_region(d.grid(), plan.regions[0]);

  grid::DemandMap parent(d.grid());
  // Non-dyadic increments: only exact on the quantization grid.
  for (std::size_t e = 0; e < slice.parent_edge.size(); e += 3) {
    parent.add(slice.parent_edge[e], 0.3);
    parent.add(slice.parent_edge[e], 0.1 * static_cast<double>(e % 7));
  }
  const grid::DemandMap snap = snapshot_demand(parent, slice);
  for (std::size_t e = 0; e < slice.parent_edge.size(); ++e) {
    const double expect = parent.demand(slice.parent_edge[e]);
    const double got = snap.demand(static_cast<grid::EdgeId>(e));
    EXPECT_EQ(std::memcmp(&expect, &got, sizeof(double)), 0) << "edge " << e;
  }
}

TEST(HaloDemand, MergeRoundTripIsByteIdenticalAcrossOverlappingHalos) {
  const design::Design d = test_design();
  PartitionConfig cfg;
  cfg.partitions = 4;
  cfg.halo = 3;  // neighbouring halos overlap each other's cores
  const PartitionPlan plan = build_partition_plan(d, cfg);
  ASSERT_GE(plan.region_count(), 2u);

  grid::DemandMap parent(d.grid());
  for (grid::EdgeId e = 0; e < d.grid().edge_count(); e += 2) {
    parent.add(e, 0.3 + 0.1 * static_cast<double>(e % 5));
  }
  const std::vector<double> baseline = parent.raw();

  // Snapshot every region, then apply +1/-1 merges in an interleaved order
  // so overlapping halo edges accumulate from several slices before the
  // uncommits land. Quantized arithmetic makes the sums exact, so the final
  // state must equal the baseline byte for byte.
  std::vector<RegionSlice> slices;
  std::vector<grid::DemandMap> snaps;
  for (const Region& r : plan.regions) {
    slices.push_back(slice_region(d.grid(), r));
    snaps.push_back(snapshot_demand(parent, slices.back()));
  }
  for (std::size_t r = 0; r < slices.size(); ++r) {
    merge_demand(parent, slices[r], snaps[r], +1.0);
  }
  for (std::size_t r = slices.size(); r-- > 0;) {
    merge_demand(parent, slices[r], snaps[r], -1.0);
  }
  const std::vector<double>& after = parent.raw();
  ASSERT_EQ(after.size(), baseline.size());
  EXPECT_EQ(std::memcmp(after.data(), baseline.data(),
                        baseline.size() * sizeof(double)),
            0);

  // And a commit/uncommit cycle through a single overlapping halo edge is
  // exact too (the ECO rip-up guarantee, now across region boundaries).
  for (std::size_t r = 0; r + 1 < slices.size(); ++r) {
    merge_demand(parent, slices[r], snaps[r], +1.0);
    merge_demand(parent, slices[r + 1], snaps[r + 1], +1.0);
    merge_demand(parent, slices[r], snaps[r], -1.0);
    merge_demand(parent, slices[r + 1], snaps[r + 1], -1.0);
  }
  EXPECT_EQ(std::memcmp(parent.raw().data(), baseline.data(),
                        baseline.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// PartitionedRouter
// ---------------------------------------------------------------------------

TEST(PartitionedRouter, RoutesLegallyAndReportsRegionChildren) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = test_design();
  pipeline::RoutingContext ctx(d);
  const std::unique_ptr<pipeline::Router> router =
      pipeline::make_router("partitioned", fast_options(4));
  ASSERT_NE(router, nullptr);
  const eval::RouteSolution sol = router->route(ctx);

  EXPECT_EQ(sol.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(sol.connects_all_pins());
  EXPECT_TRUE(router->stats().status.ok());
  EXPECT_EQ(router->stats().counter("partitions"), 4.0);
  // One child per region (plus a cross pass when cross nets exist).
  EXPECT_GE(router->stats().children.size(), 4u);
  for (const char* stage : {"partition", "regions", "merge", "reconcile"}) {
    bool found = false;
    for (const auto& s : router->stats().stages) found |= (s.stage == stage);
    EXPECT_TRUE(found) << stage;
  }
  // route() leaves the live demand equal to the solution's demand.
  const grid::DemandMap reference = sol.demand(ctx.via_beta());
  EXPECT_EQ(std::memcmp(ctx.demand().raw().data(), reference.raw().data(),
                        reference.raw().size() * sizeof(double)),
            0);
}

TEST(PartitionedRouter, PassesTheValidationGateThroughThePipeline) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = test_design();
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  const pipeline::PipelineResult result =
      pipe.run("partitioned", fast_options(4));
  EXPECT_TRUE(result.stats.status.ok());
  EXPECT_EQ(result.solution.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(result.solution.connects_all_pins());
  EXPECT_EQ(result.stats.repaired_nets, 0);
  EXPECT_GT(result.stats.stage_seconds("route_total"), 0.0);
}

TEST(PartitionedRouter, UnknownRegionRouterFailsBeforeAnyRegionWork) {
  util::set_log_level(util::LogLevel::kOff);
  const design::Design d = test_design();
  pipeline::RouterOptions options = fast_options(4);
  options.partition.region_router = "no-such-router";
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  const pipeline::PipelineResult result = pipe.run("partitioned", options);
  EXPECT_EQ(result.stats.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(result.stats.degraded);
  EXPECT_EQ(result.stats.repaired_nets, 0);
  EXPECT_TRUE(result.stats.children.empty());
  EXPECT_TRUE(result.solution.nets.empty());
  util::set_log_level(util::LogLevel::kWarn);
}

TEST(PartitionedRouter, BitwiseDeterministicAcrossWorkerCounts) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = test_design();
  for (const int partitions : {2, 4}) {
    eval::RouteSolution reference;
    std::vector<double> reference_demand;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      util::set_worker_count(workers);
      pipeline::RoutingContext ctx(d);
      const std::unique_ptr<pipeline::Router> router =
          pipeline::make_router("partitioned", fast_options(partitions));
      const eval::RouteSolution sol = router->route(ctx);
      if (workers == 1u) {
        reference = sol;
        reference_demand = ctx.demand().raw();
      } else {
        expect_identical(reference, sol);
        ASSERT_EQ(ctx.demand().raw().size(), reference_demand.size());
        EXPECT_EQ(std::memcmp(ctx.demand().raw().data(), reference_demand.data(),
                              reference_demand.size() * sizeof(double)),
                  0)
            << "partitions=" << partitions << " workers=" << workers;
      }
    }
    util::set_worker_count(0);
  }
}

TEST(PartitionedRouter, QualityStaysComparableToTheSequentialRouter) {
  util::set_log_level(util::LogLevel::kWarn);
  const design::Design d = test_design();
  pipeline::RoutingContext seq_ctx(d);
  const std::unique_ptr<pipeline::Router> seq =
      pipeline::make_router("cugr2-lite", fast_options(0));
  const eval::RouteSolution seq_sol = seq->route(seq_ctx);

  pipeline::RoutingContext par_ctx(d);
  const std::unique_ptr<pipeline::Router> par =
      pipeline::make_router("partitioned", fast_options(4));
  const eval::RouteSolution par_sol = par->route(par_ctx);

  // Same eval stage; the partitioned result must stay in the same quality
  // regime (wirelength within 10%, overflow not exploding). The tight <= 2%
  // weighted-cost gate lives in bench/partition_scaling on the bench-scale
  // series; this is the fast structural guard.
  const eval::Metrics a = seq_ctx.evaluate(seq_sol);
  const eval::Metrics b = par_ctx.evaluate(par_sol);
  EXPECT_GT(b.wirelength, 0);
  EXPECT_LE(static_cast<double>(b.wirelength),
            1.10 * static_cast<double>(a.wirelength));
  EXPECT_LE(b.total_overflow, a.total_overflow + 0.05 * (a.total_overflow + 10.0));
}

}  // namespace
}  // namespace dgr::partition
