#include "partition/router.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/registry.hpp"
#include "post/maze_refine.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace dgr::partition {

namespace {

using dgr::Status;
using dgr::StatusCode;

/// splitmix64 finalizer: decorrelates the per-region RNG streams from the
/// context seed deterministically (same mixing for any worker count).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One region job's output slot: written only by the job that owns it,
/// consumed by the serial merge in region order.
struct RegionResult {
  eval::RouteSolution solution;  ///< parent coordinates, parent net indices
  pipeline::RouterStats stats;
  Status status;
};

}  // namespace

PartitionedRouter::PartitionedRouter(PartitionConfig config,
                                     pipeline::RouterOptions region_options)
    : config_(std::move(config)), region_options_(std::move(region_options)) {
  if (config_.region_router.empty() || config_.region_router == "partitioned") {
    config_.region_router = "cugr2-lite";
  }
  config_.partitions = std::max(config_.partitions, 1);
}

eval::RouteSolution PartitionedRouter::route(pipeline::RoutingContext& ctx) {
  DGR_TRACE_SCOPE("route.partitioned");
  reset_stats();
  if (!pipeline::has_router(config_.region_router)) {
    stats_.status = Status(StatusCode::kNotFound,
                           "partitioned: no region router registered under '" +
                               config_.region_router + "'");
    return {};
  }
  const design::Design& dsn = ctx.design();
  const grid::GCellGrid& grid = dsn.grid();

  // ---- plan ---------------------------------------------------------------
  util::Timer timer;
  // The live demand doubles as the congestion-seeding signal. It only
  // counts as *committed outside demand* (subtracted from region
  // capacities) when it does not come from a warm start: a warm start
  // seeds the demand of the very nets being rerouted, which must not be
  // charged against themselves.
  const grid::DemandMap committed = ctx.demand();
  const grid::DemandMap* outside =
      ctx.warm_start() == nullptr ? &committed : nullptr;
  PartitionPlan plan;
  {
    DGR_TRACE_SCOPE("partition.plan");
    plan = build_partition_plan(dsn, config_, &committed);
  }
  const std::size_t regions = plan.region_count();
  stats_.add_stage("partition", timer.seconds());
  stats_.add_counter("partitions", static_cast<double>(regions));
  stats_.add_counter("halo", static_cast<double>(config_.halo));
  stats_.add_counter("cross_nets", static_cast<double>(plan.cross_nets.size()));
  obs::metrics().gauge("partition.regions").set(static_cast<double>(regions));

  // ---- delegate when the plan degenerates to one region -------------------
  if (regions <= 1) {
    const std::unique_ptr<pipeline::Router> leaf =
        pipeline::make_router(config_.region_router, region_options_);
    eval::RouteSolution sol = leaf->route(ctx);  // leaf syncs ctx demand
    stats_.children.push_back(leaf->stats());
    stats_.status = leaf->stats().status;
    stats_.degraded = leaf->stats().degraded;
    stats_.add_stage("regions", leaf->stats().total_seconds());
    return sol;
  }

  // ---- region stage: concurrent, slot-isolated ----------------------------
  timer.reset();
  std::vector<RegionResult> results(regions);
  {
    DGR_TRACE_SCOPE("partition.regions");
    util::ParallelRuntime::for_each(
        0, regions,
        [&](std::size_t r) {
          DGR_TRACE_SCOPE("partition.region");
          RegionResult& out = results[r];
          const std::vector<std::size_t>& nets = plan.region_nets[r];
          out.stats.router = config_.region_router;
          out.stats.add_counter("region", static_cast<double>(r));
          out.stats.add_counter("region_nets", static_cast<double>(nets.size()));
          out.stats.add_counter(
              "core_cells",
              static_cast<double>(plan.regions[r].core.width() + 1) *
                  static_cast<double>(plan.regions[r].core.height() + 1));
          if (nets.empty()) return;
          try {
            const RegionSlice slice = slice_region(grid, plan.regions[r]);
            design::Design sub = make_region_design(
                dsn, slice, nets, dsn.name() + "#r" + std::to_string(r));
            pipeline::ContextOptions copts;
            copts.capacities = slice_capacities(slice, ctx.capacities(), outside);
            copts.via_beta = ctx.via_beta();
            copts.seed = mix_seed(ctx.seed(), r);
            pipeline::RoutingContext subctx(sub, std::move(copts));
            subctx.set_deadline(ctx.deadline());
            const std::unique_ptr<pipeline::Router> leaf =
                pipeline::make_router(config_.region_router, region_options_);
            eval::RouteSolution rsol = leaf->route(subctx);
            out.stats.stages = leaf->stats().stages;
            for (const auto& kv : leaf->stats().counters) {
              out.stats.counters.push_back(kv);
            }
            out.stats.status = leaf->stats().status;
            out.stats.degraded = leaf->stats().degraded;
            out.status = leaf->stats().status;
            out.solution.nets.reserve(rsol.nets.size());
            for (eval::NetRoute& nr : rsol.nets) {
              translate_route(nr, slice.origin);
              nr.design_net = nets[nr.design_net];
              out.solution.nets.push_back(std::move(nr));
            }
            obs::metrics().counter("partition.regions_routed").add(1);
          } catch (const std::exception& e) {
            out.status = Status(StatusCode::kInternal,
                                "partitioned: region " + std::to_string(r) +
                                    " failed: " + e.what());
          }
        },
        /*grain=*/1);
  }
  stats_.add_stage("regions", timer.seconds());

  // ---- merge: fixed region order, independent of completion order ---------
  timer.reset();
  const std::size_t net_count = dsn.net_count();
  std::vector<std::vector<dag::PatternPath>> paths_of(net_count);
  std::vector<char> has_route(net_count, 0);
  std::vector<std::size_t> pending = plan.cross_nets;  // ascending already
  for (std::size_t r = 0; r < regions; ++r) {
    RegionResult& res = results[r];
    stats_.children.push_back(std::move(res.stats));
    if (!res.status.ok()) {
      // A failed region's nets fall back to the serial reconcile pass; the
      // run degrades instead of dying.
      stats_.degraded = true;
      pending.insert(pending.end(), plan.region_nets[r].begin(),
                     plan.region_nets[r].end());
      obs::metrics().counter("partition.region_failures").add(1);
      continue;
    }
    for (eval::NetRoute& nr : res.solution.nets) {
      if (nr.paths.empty()) continue;  // broken in-region: reroute serially
      paths_of[nr.design_net] = std::move(nr.paths);
      has_route[nr.design_net] = 1;
    }
    for (const std::size_t idx : plan.region_nets[r]) {
      if (!has_route[idx]) pending.push_back(idx);
    }
  }
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

  eval::RouteSolution merged;
  merged.design = &dsn;
  std::vector<std::size_t> slot_of(net_count, 0);
  merged.nets.reserve(dsn.routable_nets().size());
  for (const std::size_t idx : dsn.routable_nets()) {
    slot_of[idx] = merged.nets.size();
    merged.nets.push_back({idx, std::move(paths_of[idx])});
  }
  stats_.add_stage("merge", timer.seconds());

  // ---- reconcile: cross-boundary route + bounded halo-conflict refine -----
  timer.reset();
  Status reconcile_status;
  {
    DGR_TRACE_SCOPE("partition.reconcile");
    if (!pending.empty()) {
      grid::DemandMap region_demand = merged.demand(ctx.via_beta());
      std::vector<float> residual = ctx.capacities();
      for (std::size_t ei = 0; ei < residual.size(); ++ei) {
        residual[ei] = std::max(
            0.0f, residual[ei] - static_cast<float>(region_demand.demand(
                                     static_cast<grid::EdgeId>(ei))));
      }
      std::vector<design::Net> cross_nets;
      cross_nets.reserve(pending.size());
      for (const std::size_t idx : pending) cross_nets.push_back(dsn.net(idx));
      design::Design cross_design(dsn.name() + "#cross", grid,
                                  std::move(cross_nets));
      pipeline::ContextOptions copts;
      copts.capacities = std::move(residual);
      copts.via_beta = ctx.via_beta();
      copts.seed = mix_seed(ctx.seed(), regions + 1);
      pipeline::RoutingContext crossctx(cross_design, std::move(copts));
      crossctx.set_deadline(ctx.deadline());
      // The cross pass runs serially on the full grid, so it is kept cheap:
      // pattern routing over the merged congestion only, no per-net maze
      // escapes — the maze_refine reconcile below repairs any overflow it
      // leaves at a fraction of the cost of full-grid maze fallbacks.
      pipeline::RouterOptions cross_options = region_options_;
      cross_options.cugr2.maze_fallback = false;
      cross_options.cugr2.rrr_rounds =
          std::max(2, region_options_.cugr2.rrr_rounds / 2);
      const std::unique_ptr<pipeline::Router> leaf =
          pipeline::make_router(config_.region_router, cross_options);
      try {
        eval::RouteSolution cross_sol = leaf->route(crossctx);
        pipeline::RouterStats cross_stats = leaf->stats();
        cross_stats.add_counter("cross_pass", 1.0);
        stats_.children.push_back(std::move(cross_stats));
        reconcile_status = leaf->stats().status;
        for (eval::NetRoute& nr : cross_sol.nets) {
          merged.nets[slot_of[pending[nr.design_net]]].paths = std::move(nr.paths);
        }
      } catch (const std::exception& e) {
        reconcile_status = Status(
            StatusCode::kInternal,
            std::string("partitioned: cross-boundary route failed: ") + e.what());
      }
    }
    if (config_.reconcile_rounds > 0) {
      post::MazeRefineOptions ropts;
      ropts.max_rounds = config_.reconcile_rounds;
      ropts.via_beta = ctx.via_beta();
      const post::MazeRefineStats rs =
          post::maze_refine(merged, ctx.capacities(), ropts);
      stats_.add_counter("reconcile_rerouted", static_cast<double>(rs.nets_rerouted));
      stats_.add_counter("reconcile_improved", static_cast<double>(rs.nets_improved));
      obs::metrics().counter("partition.reconcile_rerouted").add(rs.nets_rerouted);
    }
  }
  stats_.add_stage("reconcile", timer.seconds());
  stats_.add_counter("reconciled_nets", static_cast<double>(pending.size()));
  if (!reconcile_status.ok()) {
    stats_.degraded = true;
    stats_.status = reconcile_status;
  }

  // Leave the context's live demand equal to the returned solution's.
  ctx.reset_demand();
  ctx.commit(merged);
  return merged;
}

}  // namespace dgr::partition
