#pragma once
/// \file
/// PartitionedRouter: partition-parallel routing behind the Router
/// interface (DESIGN.md §11), registered as "partitioned".
///
/// route() tiles the grid with build_partition_plan, routes every region's
/// fully-contained nets concurrently on util::ParallelRuntime — each region
/// job builds a RegionSlice sub-design and a region RoutingContext whose
/// capacities are the residuals a committed-demand halo snapshot leaves,
/// then runs a fresh instance of the named leaf router — and finally
/// merges the regions in fixed region order and reconciles serially: the
/// cross-boundary set routes against the merged residuals, and a bounded
/// post::maze_refine pass cleans up halo conflicts. Region results land in
/// per-region slots and every serial pass walks them in region/net order,
/// so the output is bitwise identical across worker counts at a fixed
/// partition count.

#include "partition/partition.hpp"
#include "pipeline/adapters.hpp"
#include "pipeline/router.hpp"

namespace dgr::partition {

class PartitionedRouter : public pipeline::Router {
 public:
  /// `region_options` configures the leaf engine each region instantiates
  /// (config.region_router names it; "partitioned" is rejected and falls
  /// back to "cugr2-lite" so the factory cannot recurse).
  explicit PartitionedRouter(PartitionConfig config = {},
                             pipeline::RouterOptions region_options = {});

  std::string_view name() const override { return "partitioned"; }
  eval::RouteSolution route(pipeline::RoutingContext& ctx) override;

 private:
  PartitionConfig config_;
  pipeline::RouterOptions region_options_;
};

}  // namespace dgr::partition
