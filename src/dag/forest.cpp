#include "dag/forest.hpp"

#include <cassert>
#include <numeric>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace dgr::dag {

using design::Design;
using grid::EdgeId;
using grid::GCellGrid;

namespace {

/// Adaptive expansion: the share of an edge's base capacity its estimated
/// demand must exceed, and the Z-shape jogs a subnet near it receives.
constexpr float kAdaptiveThreshold = 0.8f;
constexpr int kAdaptiveZSamples = 3;

/// Per-net intermediate produced by the (parallel) generation phase.
struct NetForest {
  std::vector<rsmt::SteinerTree> trees;
  // subnet endpoints per tree, and enumerated paths per subnet
  std::vector<std::vector<std::pair<Point, Point>>> tree_subnets;
  std::vector<std::vector<std::vector<PatternPath>>> subnet_paths;
};

/// True when the subnet's bounding box touches an edge whose estimated
/// pre-routing demand exceeds the adaptive-expansion threshold.
bool subnet_in_congestion(const TreeCandidateGenerator& gen, Point a, Point b) {
  const GCellGrid& grid = gen.design().grid();
  const auto& est = gen.congestion();
  const geom::Rect box = geom::Rect::bounding_box({a, b});
  for (geom::Coord y = box.lo.y; y <= box.hi.y; ++y) {
    for (geom::Coord x = box.lo.x; x <= box.hi.x; ++x) {
      for (const EdgeId e : {x + 1 <= box.hi.x ? grid.h_edge(x, y) : grid::kInvalidEdge,
                             y + 1 <= box.hi.y ? grid.v_edge(x, y) : grid::kInvalidEdge}) {
        if (e == grid::kInvalidEdge) continue;
        if (est[static_cast<std::size_t>(e)] >
            kAdaptiveThreshold * static_cast<float>(grid.base_capacity(e))) {
          return true;
        }
      }
    }
  }
  return false;
}

NetForest build_net(const TreeCandidateGenerator& gen, const ForestOptions& opts,
                    std::size_t net_idx) {
  NetForest nf;
  nf.trees = gen.generate(net_idx);
  nf.tree_subnets.resize(nf.trees.size());
  nf.subnet_paths.resize(nf.trees.size());
  for (std::size_t t = 0; t < nf.trees.size(); ++t) {
    const rsmt::SteinerTree& tree = nf.trees[t];
    for (const auto& [a, b] : tree.edges) {
      const Point pa = tree.nodes[static_cast<std::size_t>(a)];
      const Point pb = tree.nodes[static_cast<std::size_t>(b)];
      nf.tree_subnets[t].emplace_back(pa, pb);
      PathEnumOptions path_opts = opts.paths;
      if (opts.adaptive_expansion && subnet_in_congestion(gen, pa, pb)) {
        path_opts.z_samples = std::max(path_opts.z_samples, kAdaptiveZSamples);
      }
      nf.subnet_paths[t].push_back(
          enumerate_paths(pa, pb, path_opts, gen.design().grid()));
    }
  }
  return nf;
}

}  // namespace

DagForest DagForest::build(const Design& design, const ForestOptions& opts) {
  DGR_TRACE_SCOPE("dag.forest_build");
  DagForest forest;
  forest.design_ = &design;
  forest.opts_ = opts;
  forest.net_ids_ = design.routable_nets();
  const std::size_t num_nets = forest.net_ids_.size();

  TreeCandidateGenerator gen(design, opts.tree);

  // Phase 1 (parallel): per-net candidate generation.
  std::vector<NetForest> per_net(num_nets);
  util::ParallelRuntime::for_each(
      0, num_nets,
      [&](std::size_t n) { per_net[n] = build_net(gen, opts, forest.net_ids_[n]); },
      /*grain=*/16);

  // Phase 2 (serial): concatenate into flat pools.
  forest.net_tree_offsets_.reserve(num_nets + 1);
  forest.net_tree_offsets_.push_back(0);
  const GCellGrid& grid = design.grid();
  const float via_w = opts.via_demand_beta * 0.5f;

  for (std::size_t n = 0; n < num_nets; ++n) {
    NetForest& nf = per_net[n];
    for (std::size_t t = 0; t < nf.trees.size(); ++t) {
      TreeCandidate tc;
      tc.net = static_cast<std::int32_t>(n);
      tc.subnet_begin = static_cast<std::int32_t>(forest.subnets_.size());
      const auto tree_idx = static_cast<std::int32_t>(forest.trees_.size());
      for (std::size_t s = 0; s < nf.tree_subnets[t].size(); ++s) {
        Subnet sn;
        sn.tree = tree_idx;
        sn.a = nf.tree_subnets[t][s].first;
        sn.b = nf.tree_subnets[t][s].second;
        sn.path_begin = static_cast<std::int32_t>(forest.paths_.size());
        for (PatternPath& pp : nf.subnet_paths[t][s]) {
          PathCandidate pc;
          pc.subnet = static_cast<std::int32_t>(forest.subnets_.size());
          pc.tree = tree_idx;
          pc.net = static_cast<std::int32_t>(n);
          pc.wirelength = static_cast<float>(pp.length());
          pc.turns = static_cast<std::int32_t>(pp.bend_count());

          pc.inc_begin = static_cast<std::uint32_t>(forest.inc_edges_.size());
          const std::vector<EdgeId> edges = pp.edges(grid);
          for (const EdgeId e : edges) {
            forest.inc_edges_.push_back(e);
            forest.inc_weights_.push_back(1.0f);
          }
          // Via charge: the two edges meeting at each bend get +beta/2.
          // Bend k sits between leg k and leg k+1; walking the polyline, the
          // edge entering the bend and the edge leaving it are adjacent in
          // `edges` at the cumulative leg-length boundary.
          if (via_w > 0.0f && pp.bend_count() > 0) {
            std::size_t cursor = 0;
            for (std::size_t leg = 0; leg + 1 < pp.waypoints.size(); ++leg) {
              cursor += static_cast<std::size_t>(
                  geom::manhattan(pp.waypoints[leg], pp.waypoints[leg + 1]));
              if (leg + 2 < pp.waypoints.size()) {  // a bend follows this leg
                assert(cursor > 0 && cursor < edges.size() + 1);
                forest.inc_weights_[pc.inc_begin + static_cast<std::uint32_t>(cursor) - 1] +=
                    via_w;
                if (cursor < edges.size()) {
                  forest.inc_weights_[pc.inc_begin + static_cast<std::uint32_t>(cursor)] +=
                      via_w;
                }
              }
            }
          }
          pc.inc_end = static_cast<std::uint32_t>(forest.inc_edges_.size());

          pc.bend_begin = static_cast<std::uint32_t>(forest.bend_pool_.size());
          for (const Point& bend : pp.bends()) forest.bend_pool_.push_back(bend);
          pc.bend_end = static_cast<std::uint32_t>(forest.bend_pool_.size());

          forest.paths_.push_back(pc);
        }
        sn.path_end = static_cast<std::int32_t>(forest.paths_.size());
        forest.subnets_.push_back(sn);
      }
      tc.subnet_end = static_cast<std::int32_t>(forest.subnets_.size());
      tc.tree = std::move(nf.trees[t]);
      forest.trees_.push_back(std::move(tc));
    }
    forest.net_tree_offsets_.push_back(static_cast<std::int32_t>(forest.trees_.size()));
  }

  // Phase 3: edge-major transpose (counting sort over edge ids).
  const auto num_edges = static_cast<std::size_t>(grid.edge_count());
  forest.edge_inc_offsets_.assign(num_edges + 1, 0);
  for (const EdgeId e : forest.inc_edges_) {
    ++forest.edge_inc_offsets_[static_cast<std::size_t>(e) + 1];
  }
  std::partial_sum(forest.edge_inc_offsets_.begin(), forest.edge_inc_offsets_.end(),
                   forest.edge_inc_offsets_.begin());
  forest.edge_inc_paths_.resize(forest.inc_edges_.size());
  forest.edge_inc_weights_.resize(forest.inc_edges_.size());
  {
    std::vector<std::uint32_t> cursor(forest.edge_inc_offsets_.begin(),
                                      forest.edge_inc_offsets_.end() - 1);
    for (std::size_t p = 0; p < forest.paths_.size(); ++p) {
      const PathCandidate& pc = forest.paths_[p];
      for (std::uint32_t k = pc.inc_begin; k < pc.inc_end; ++k) {
        const auto e = static_cast<std::size_t>(forest.inc_edges_[k]);
        const std::uint32_t slot = cursor[e]++;
        forest.edge_inc_paths_[slot] = static_cast<std::int32_t>(p);
        forest.edge_inc_weights_[slot] = forest.inc_weights_[k];
      }
    }
  }

  return forest;
}

PatternPath DagForest::path_geometry(std::size_t i) const {
  const PathCandidate& pc = paths_[i];
  const Subnet& sn = subnets_[static_cast<std::size_t>(pc.subnet)];
  PatternPath pp;
  pp.waypoints.push_back(sn.a);
  for (std::uint32_t k = pc.bend_begin; k < pc.bend_end; ++k) {
    pp.waypoints.push_back(bend_pool_[k]);
  }
  pp.waypoints.push_back(sn.b);
  return pp;
}

std::size_t DagForest::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += trees_.capacity() * sizeof(TreeCandidate);
  for (const TreeCandidate& t : trees_) {
    bytes += t.tree.nodes.capacity() * sizeof(Point) +
             t.tree.edges.capacity() * sizeof(std::pair<int, int>);
  }
  bytes += subnets_.capacity() * sizeof(Subnet);
  bytes += paths_.capacity() * sizeof(PathCandidate);
  bytes += bend_pool_.capacity() * sizeof(Point);
  bytes += inc_edges_.capacity() * sizeof(EdgeId);
  bytes += inc_weights_.capacity() * sizeof(float);
  bytes += edge_inc_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += edge_inc_paths_.capacity() * sizeof(std::int32_t);
  bytes += edge_inc_weights_.capacity() * sizeof(float);
  bytes += net_tree_offsets_.capacity() * sizeof(std::int32_t);
  bytes += net_ids_.capacity() * sizeof(std::size_t);
  return bytes;
}

}  // namespace dgr::dag
