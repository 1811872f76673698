#pragma once
/// \file
/// Spatial partitioning of a routing problem (DESIGN.md §11).
///
/// A Partitioner tiles the g-cell grid into K disjoint core rectangles, each
/// inflated by a halo margin, and classifies every net: a routable net whose
/// pin bounding box fits inside exactly one region *core* is region-local
/// (it can be routed inside that region's halo window without seeing any
/// other region's nets); everything else goes to the cross-boundary set and
/// is routed serially after the regions merge. GANGR motivates seeding the
/// tiling from congestion; here the per-cell weight is pin density plus any
/// committed demand the caller passes in, so hot spots land in smaller
/// tiles and the per-region work balances.
///
/// This header is deliberately pipeline-free (grid/design/eval only): the
/// PartitionedRouter in partition/router.hpp layers the pipeline types on
/// top, and pipeline/adapters.hpp can embed a PartitionConfig in
/// RouterOptions without an include cycle.

#include <cstdint>
#include <string>
#include <vector>

#include "design/design.hpp"
#include "eval/solution.hpp"
#include "geom/geom.hpp"
#include "grid/demand_map.hpp"
#include "grid/gcell_grid.hpp"

namespace dgr::partition {

/// How the partitioner picks split coordinates.
enum class Seeding : std::uint8_t {
  /// Balance per-cell weight = 1 + pin density + committed demand pressure
  /// (the DemandMap snapshot the caller provides). Hot regions get smaller
  /// tiles; the plan is a pure function of (design, config, snapshot).
  kCongestionAware = 0,
  /// Ignore weights: split every rect at its geometric midpoint.
  kUniform = 1,
};

struct PartitionConfig {
  /// Requested region count. <= 1 disables partitioning (the partitioned
  /// router delegates to the region router on the full grid).
  int partitions = 0;
  /// Halo margin in g-cells: each region routes inside core.inflated(halo),
  /// clamped to the grid, so region-local nets may detour a little past
  /// their core without entering another region's core-owned state.
  int halo = 2;
  Seeding seeding = Seeding::kCongestionAware;
  /// Registry name of the engine that routes each region and the
  /// cross-boundary set. "partitioned" itself is rejected (no recursion).
  std::string region_router = "cugr2-lite";
  /// Bound on the reconciliation maze_refine rounds over the merged result.
  int reconcile_rounds = 1;
  /// A rect is never split below this core extent on either axis, so K is
  /// silently reduced on small grids (the plan reports what it built).
  int min_region_extent = 4;
};

/// One tile of the plan. Cores are disjoint and cover the grid; halo is
/// core.inflated(config.halo) clamped to the grid, so halos of neighbouring
/// regions overlap each other's cores by up to `halo` cells.
struct Region {
  geom::Rect core;
  geom::Rect halo;
};

/// net_region codes for nets that belong to no single region.
inline constexpr int kNetLocal = -2;  ///< not routable (single g-cell)
inline constexpr int kNetCross = -1;  ///< bounding box spans core boundaries

struct PartitionPlan {
  std::vector<Region> regions;
  /// Per design-net classification: region index, kNetCross, or kNetLocal.
  std::vector<int> net_region;
  /// Routable design-net indices fully contained in each region's core,
  /// in ascending net order (deterministic region sub-design).
  std::vector<std::vector<std::size_t>> region_nets;
  /// Routable design-net indices in the cross-boundary set, ascending.
  std::vector<std::size_t> cross_nets;

  std::size_t region_count() const { return regions.size(); }
};

/// Builds a PartitionPlan by recursive weighted bisection. `committed` may
/// be null (weights fall back to pin density alone); when present it must be
/// sized for `design.grid()`. The result depends only on (design, config,
/// committed) — never on thread count — which is what extends the repo's
/// determinism contract to partitioned routing.
PartitionPlan build_partition_plan(const design::Design& design,
                                   const PartitionConfig& config,
                                   const grid::DemandMap* committed = nullptr);

/// A region's routing window: a standalone sub-grid over the halo rect plus
/// the index maps back to the parent grid.
struct RegionSlice {
  grid::GCellGrid grid;          ///< (halo width+1) x (halo height+1) cells
  geom::Point origin;            ///< parent coordinates of slice cell (0,0)
  /// Per slice-edge parent EdgeId (slice edges are interior edges of the
  /// halo rect, so every one has a parent).
  std::vector<grid::EdgeId> parent_edge;
};

/// Cuts the halo window of `region` out of the parent grid. Layers (and so
/// per-direction capacities) are inherited from the parent.
RegionSlice slice_region(const grid::GCellGrid& parent, const Region& region);

/// Residual per-edge capacities of a slice: parent capacity minus the
/// committed demand snapshot on the same parent edge, clamped at >= 0.
/// `committed` may be null (no demand outside the region yet).
std::vector<float> slice_capacities(const RegionSlice& slice,
                                    const std::vector<float>& parent_capacities,
                                    const grid::DemandMap* committed = nullptr);

/// Copies the parent demand on the slice's edges into a slice-indexed map.
/// Values transfer verbatim (they are already on the 2^-20 quantization
/// grid), so snapshot -> merge(+1) -> merge(-1) round-trips are
/// byte-identical even when neighbouring halos overlap.
grid::DemandMap snapshot_demand(const grid::DemandMap& parent,
                                const RegionSlice& slice);

/// Adds (`sign`=+1) or removes (`sign`=-1) a slice demand map into the
/// parent map, edge by edge through RegionSlice::parent_edge.
void merge_demand(grid::DemandMap& parent, const RegionSlice& slice,
                  const grid::DemandMap& slice_demand, double sign = 1.0);

/// Sub-design of the region: the given parent nets re-based into slice
/// coordinates (pins - origin). Net order follows `net_indices`.
design::Design make_region_design(const design::Design& parent,
                                  const RegionSlice& slice,
                                  const std::vector<std::size_t>& net_indices,
                                  std::string name);

/// Translates a slice-coordinate route in place to parent coordinates.
void translate_route(eval::NetRoute& net, const geom::Point& origin);

}  // namespace dgr::partition
