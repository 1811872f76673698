#include "dag/tree_candidates.hpp"

#include <algorithm>
#include <cmath>

namespace dgr::dag {

using geom::Point;
using geom::Rect;
using grid::EdgeId;
using grid::GCellGrid;

namespace {

/// SALT shallowness slack of candidate 3.
constexpr double kSaltEpsilon = 0.5;
/// Steiner-node search radius (cells) of candidate 1.
constexpr int kShiftWindow = 2;

}  // namespace

std::vector<float> estimate_congestion(const Design& design) {
  const GCellGrid& grid = design.grid();
  std::vector<float> demand(static_cast<std::size_t>(grid.edge_count()), 0.0f);
  for (std::size_t n : design.routable_nets()) {
    const Rect box = Rect::bounding_box(design.net(n).pins);
    const int w = box.width();
    const int h = box.height();
    // Expected horizontal wire crossings: w units of wire spread over the
    // (h+1) rows of the box; symmetrically for vertical.
    if (w > 0) {
      const float per_edge = 1.0f / static_cast<float>(h + 1);
      for (geom::Coord y = box.lo.y; y <= box.hi.y; ++y) {
        for (geom::Coord x = box.lo.x; x < box.hi.x; ++x) {
          demand[static_cast<std::size_t>(grid.h_edge(x, y))] += per_edge;
        }
      }
    }
    if (h > 0) {
      const float per_edge = 1.0f / static_cast<float>(w + 1);
      for (geom::Coord x = box.lo.x; x <= box.hi.x; ++x) {
        for (geom::Coord y = box.lo.y; y < box.hi.y; ++y) {
          demand[static_cast<std::size_t>(grid.v_edge(x, y))] += per_edge;
        }
      }
    }
  }
  return demand;
}

TreeCandidateGenerator::TreeCandidateGenerator(const Design& design,
                                               TreeCandidateOptions opts)
    : design_(design), opts_(opts), congestion_(estimate_congestion(design)) {}

float TreeCandidateGenerator::cell_congestion(Point p) const {
  const GCellGrid& grid = design_.grid();
  float total = 0.0f;
  int count = 0;
  auto add = [&](EdgeId e) {
    total += congestion_[static_cast<std::size_t>(e)] -
             static_cast<float>(grid.base_capacity(e));
    ++count;
  };
  if (p.x > 0) add(grid.h_edge(p.x - 1, p.y));
  if (p.x + 1 < grid.width()) add(grid.h_edge(p.x, p.y));
  if (p.y > 0) add(grid.v_edge(p.x, p.y - 1));
  if (p.y + 1 < grid.height()) add(grid.v_edge(p.x, p.y));
  return count > 0 ? total / static_cast<float>(count) : 0.0f;
}

SteinerTree TreeCandidateGenerator::shift_steiner_nodes(const SteinerTree& tree) const {
  const GCellGrid& grid = design_.grid();
  SteinerTree shifted = tree;
  for (std::size_t v = shifted.pin_count; v < shifted.nodes.size(); ++v) {
    const Point orig = shifted.nodes[v];
    Point best = orig;
    // Penalise wirelength growth so the shift trades congestion against WL
    // the way CUGR2's fine-tuning does.
    float best_score = cell_congestion(orig);
    for (int dx = -kShiftWindow; dx <= kShiftWindow; ++dx) {
      for (int dy = -kShiftWindow; dy <= kShiftWindow; ++dy) {
        const Point cand{static_cast<geom::Coord>(orig.x + dx),
                         static_cast<geom::Coord>(orig.y + dy)};
        if (!grid.in_bounds(cand) || cand == orig) continue;
        const float wl_penalty = 0.5f * static_cast<float>(std::abs(dx) + std::abs(dy));
        const float score = cell_congestion(cand) + wl_penalty;
        if (score < best_score) {
          best_score = score;
          best = cand;
        }
      }
    }
    shifted.nodes[v] = best;
  }
  shifted.simplify();
  return shifted;
}

SteinerTree TreeCandidateGenerator::trunk_tree(const std::vector<Point>& pins) const {
  // Star through the coordinate-wise median: robust, short, very different
  // topology from the RSMT, which is what candidate diversity wants.
  std::vector<geom::Coord> xs, ys;
  xs.reserve(pins.size());
  ys.reserve(pins.size());
  for (const Point& p : pins) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  std::nth_element(ys.begin(), ys.begin() + ys.size() / 2, ys.end());
  const Point centre{xs[xs.size() / 2], ys[ys.size() / 2]};

  SteinerTree tree;
  tree.nodes = pins;
  tree.pin_count = pins.size();
  int centre_idx = -1;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] == centre) centre_idx = static_cast<int>(i);
  }
  if (centre_idx < 0) {
    centre_idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(centre);
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (static_cast<int>(i) != centre_idx) tree.edges.emplace_back(centre_idx, static_cast<int>(i));
  }
  tree.simplify();
  return tree;
}

std::vector<SteinerTree> TreeCandidateGenerator::generate(std::size_t net_idx) const {
  const auto& pins = design_.net(net_idx).pins;
  std::vector<SteinerTree> out;
  out.push_back(builder_.build(pins));

  auto push_unique = [&out](SteinerTree t) {
    const auto key = t.canonical_edges();
    for (const SteinerTree& existing : out) {
      if (existing.canonical_edges() == key) return;
    }
    out.push_back(std::move(t));
  };

  if (opts_.congestion_shifted) push_unique(shift_steiner_nodes(out.front()));
  if (opts_.trunk_topology && pins.size() >= 3) push_unique(trunk_tree(pins));
  if (opts_.salt_topology && pins.size() >= 3) {
    // Shallow-light candidate (SALT family): short source-to-sink paths at
    // bounded extra wirelength. Pin 0 is taken as the driver.
    push_unique(rsmt::salt_tree(pins, {kSaltEpsilon, 0}));
  }
  return out;
}

}  // namespace dgr::dag
