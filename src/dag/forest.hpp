#pragma once
// The routing DAG forest F = {T, S, P} (Section 3 of the paper).
//
//   T  tree candidate pool   — every routing-tree candidate of every net,
//                              grouped contiguously per net,
//   S  2-pin subnet pool     — every tree edge of every tree candidate,
//                              grouped contiguously per tree,
//   P  path candidate pool   — every pattern path of every subnet,
//                              grouped contiguously per subnet.
//
// The contiguous grouping *is* the constraint structure: Eq. (7) is a
// softmax over each subnet's path slice, Eq. (8) over each net's tree slice.
//
// The forest also prebuilds the weighted path<->edge incidence used by the
// demand computation Eq. (2)/(10): entry weight 1 for a wire crossing, plus
// beta/2 on each of the two edges meeting at a bend (the via charge; see
// DESIGN.md interpretation note 1). Both the path-major CSR (backward pass)
// and its edge-major transpose (deterministic forward reduction) are stored.

#include <cstdint>
#include <vector>

#include "dag/path.hpp"
#include "dag/tree_candidates.hpp"
#include "design/design.hpp"

namespace dgr::dag {

struct ForestOptions {
  TreeCandidateOptions tree;
  PathEnumOptions paths;
  /// Beta of Eq. (2): via demand charged per bend. 0 disables via demand
  /// (the Table 1 ILP protocol is wire-only).
  float via_demand_beta = 0.5f;

  /// Adaptive forest expansion — the future direction the paper sketches in
  /// Section 3.1 ("adaptive expansion of the forest by introducing new DAGs
  /// and DAG edges for nets in congested areas"): subnets whose bounding box
  /// touches an edge whose *estimated* pre-routing demand exceeds 0.8 x base
  /// capacity additionally receive Z-shape candidates with 3 jogs;
  /// everything else stays with the cheap default `paths` enumeration.
  bool adaptive_expansion = false;

  /// Field-wise; RoutingContext::forest() rebuilds on any difference.
  bool operator==(const ForestOptions&) const = default;
};

struct TreeCandidate {
  std::int32_t net = 0;           ///< forest-net index (dense over routable nets)
  std::int32_t subnet_begin = 0;  ///< [subnet_begin, subnet_end) in subnet pool
  std::int32_t subnet_end = 0;
  rsmt::SteinerTree tree;
};

struct Subnet {
  std::int32_t tree = 0;        ///< owning tree-candidate index
  Point a, b;                   ///< the 2-pin endpoints
  std::int32_t path_begin = 0;  ///< [path_begin, path_end) in path pool
  std::int32_t path_end = 0;
};

struct PathCandidate {
  std::int32_t subnet = 0;
  std::int32_t tree = 0;       ///< owning tree-candidate index (denormalised)
  std::int32_t net = 0;        ///< owning forest-net index (denormalised)
  float wirelength = 0.0f;     ///< WL_i of Eq. (4)
  std::int32_t turns = 0;      ///< TP_i of Eq. (5)
  std::uint32_t inc_begin = 0; ///< [inc_begin, inc_end) into incidence arrays
  std::uint32_t inc_end = 0;
  std::uint32_t bend_begin = 0;  ///< [bend_begin, bend_end) into bend pool
  std::uint32_t bend_end = 0;
};

class DagForest {
 public:
  static DagForest build(const design::Design& design, const ForestOptions& opts = {});

  // ---- pools -------------------------------------------------------------
  const std::vector<TreeCandidate>& trees() const { return trees_; }
  const std::vector<Subnet>& subnets() const { return subnets_; }
  const std::vector<PathCandidate>& paths() const { return paths_; }
  std::size_t net_count() const { return net_ids_.size(); }
  /// Design net index of forest net n.
  std::size_t design_net(std::size_t n) const { return net_ids_[n]; }

  /// Tree-candidate slice of forest net n: [offset[n], offset[n+1]).
  const std::vector<std::int32_t>& net_tree_offsets() const { return net_tree_offsets_; }

  // ---- incidence (path -> edges, weighted) --------------------------------
  const std::vector<grid::EdgeId>& inc_edges() const { return inc_edges_; }
  const std::vector<float>& inc_weights() const { return inc_weights_; }

  // ---- transpose (edge -> paths, weighted), CSR over all grid edges -------
  const std::vector<std::uint32_t>& edge_inc_offsets() const { return edge_inc_offsets_; }
  const std::vector<std::int32_t>& edge_inc_paths() const { return edge_inc_paths_; }
  const std::vector<float>& edge_inc_weights() const { return edge_inc_weights_; }

  // ---- geometry ------------------------------------------------------------
  /// Reconstructs the full waypoint polyline of path i.
  PatternPath path_geometry(std::size_t i) const;

  const design::Design& design() const { return *design_; }
  const ForestOptions& options() const { return opts_; }

  /// Rough retained-bytes accounting for the Fig. 5b memory series.
  std::size_t memory_bytes() const;

 private:
  const design::Design* design_ = nullptr;
  ForestOptions opts_;
  std::vector<std::size_t> net_ids_;
  std::vector<std::int32_t> net_tree_offsets_;
  std::vector<TreeCandidate> trees_;
  std::vector<Subnet> subnets_;
  std::vector<PathCandidate> paths_;
  std::vector<Point> bend_pool_;
  std::vector<grid::EdgeId> inc_edges_;
  std::vector<float> inc_weights_;
  std::vector<std::uint32_t> edge_inc_offsets_;
  std::vector<std::int32_t> edge_inc_paths_;
  std::vector<float> edge_inc_weights_;
};

}  // namespace dgr::dag
