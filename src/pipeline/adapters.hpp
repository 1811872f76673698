#pragma once
/// \file
/// Router adapters: the concrete engines behind the Router interface.
///
///   "dgr"          DgrRouter        forest build -> DgrSolver train ->
///                                   top-p extraction (Sections 4.3-4.5)
///   "cugr2-lite"   Cugr2Router      sequential DP pattern router + RRR
///   "sproute-lite" SpRouteRouter    PathFinder-style negotiation maze router
///   "lagrangian"   LagrangianPipelineRouter  priced shortest paths +
///                                   subgradient multiplier updates
///
/// Maze refinement (Section 4.6) is not a router: it is the pipeline's
/// StagePlan::maze_refine stage.
///
/// Each adapter stamps the context's via_beta into its engine's demand
/// model so all stages share one bookkeeping convention, and translates the
/// engine's bespoke stats into the uniform RouterStats.

#include "core/config.hpp"
#include "core/solver.hpp"
#include "partition/partition.hpp"
#include "pipeline/router.hpp"
#include "routers/cugr2lite.hpp"
#include "routers/lagrangian.hpp"
#include "routers/sproute_lite.hpp"

namespace dgr::pipeline {

/// Aggregated per-engine options, used by the registry's factories so a
/// harness can configure any router through one struct.
struct RouterOptions {
  core::DgrConfig dgr;                       ///< "dgr": solver hyper-parameters
  dag::ForestOptions forest;                 ///< "dgr": candidate-pool options
  routers::Cugr2LiteOptions cugr2;           ///< "cugr2-lite"
  routers::SpRouteLiteOptions sproute;       ///< "sproute-lite"
  routers::LagrangianOptions lagrangian;     ///< "lagrangian"
  /// "partitioned": tiling + region-router selection (partition/router.hpp).
  /// partition.region_router names the leaf engine; the other members above
  /// configure it.
  partition::PartitionConfig partition;
};

/// DGR: builds (or reuses) the context's DAG forest, trains the
/// differentiable solver, extracts the discrete solution. Stages: "forest",
/// "train", "extract". solver_bytes reports forest + relaxation + tape
/// (the Fig. 5b "GPU memory" proxy). Ignores warm starts (the relaxation
/// is re-trained from its seeded initialisation).
class DgrRouter : public Router {
 public:
  explicit DgrRouter(core::DgrConfig config = {}, dag::ForestOptions forest = {});
  std::string_view name() const override { return "dgr"; }
  eval::RouteSolution route(RoutingContext& ctx) override;

  core::DgrConfig& config() { return config_; }
  dag::ForestOptions& forest_options() { return forest_; }

 private:
  core::DgrConfig config_;
  dag::ForestOptions forest_;
};

/// CUGR2-lite behind the Router interface. Stage: "route". Warm starts
/// re-enter the rip-up-and-reroute loop from the prior solution.
class Cugr2Router : public Router {
 public:
  explicit Cugr2Router(routers::Cugr2LiteOptions options = {});
  std::string_view name() const override { return "cugr2-lite"; }
  eval::RouteSolution route(RoutingContext& ctx) override;

 private:
  routers::Cugr2LiteOptions options_;
};

/// SPRoute-lite behind the Router interface. Stage: "route". Warm starts
/// resume negotiation from the prior solution.
class SpRouteRouter : public Router {
 public:
  explicit SpRouteRouter(routers::SpRouteLiteOptions options = {});
  std::string_view name() const override { return "sproute-lite"; }
  eval::RouteSolution route(RoutingContext& ctx) override;

 private:
  routers::SpRouteLiteOptions options_;
};

/// Lagrangian router behind the Router interface. Stage: "route". Routes
/// cold even when a warm start is set (the dual state cannot be seeded
/// from a primal solution).
class LagrangianPipelineRouter : public Router {
 public:
  explicit LagrangianPipelineRouter(routers::LagrangianOptions options = {});
  std::string_view name() const override { return "lagrangian"; }
  eval::RouteSolution route(RoutingContext& ctx) override;

 private:
  routers::LagrangianOptions options_;
};

}  // namespace dgr::pipeline
