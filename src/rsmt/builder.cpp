#include "rsmt/builder.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <tuple>

#include "rsmt/exact.hpp"

namespace dgr::rsmt {

SteinerTree RsmtBuilder::build_small(const std::vector<Point>& pins) const {
  if (pins.size() <= kExactRsmtMaxPins) return exact_rsmt(pins);
  return iterated_one_steiner(pins);
}

SteinerTree RsmtBuilder::build(const std::vector<Point>& raw_pins) const {
  std::vector<Point> pins = geom::dedupe_points(raw_pins);
  if (pins.size() <= kOneSteinerMaxPins) {
    SteinerTree t = build_small(pins);
    // build_small may reorder pins (exact/1-Steiner keep input order; assert).
    assert(t.pin_count == pins.size());
    return t;
  }

  // Recursive median bisection on the longer bounding-box dimension. The
  // median pin is placed in BOTH halves so the recursive subtrees overlap in
  // exactly one point and merge into a single tree.
  struct Merger {
    SteinerTree out;
    std::map<Point, int> index_of;  // point -> node index in `out`

    int node_for(const Point& p, bool pin_zone_done) {
      auto it = index_of.find(p);
      if (it != index_of.end()) return it->second;
      const int idx = static_cast<int>(out.nodes.size());
      out.nodes.push_back(p);
      (void)pin_zone_done;
      index_of.emplace(p, idx);
      return idx;
    }
  };

  Merger merger;
  // Register pins first so SteinerTree's "pins first" convention holds.
  for (const Point& p : pins) merger.node_for(p, false);
  merger.out.pin_count = pins.size();

  // Explicit work stack of pin groups to triangulate recursion.
  std::vector<std::vector<Point>> stack;
  stack.push_back(pins);
  while (!stack.empty()) {
    std::vector<Point> group = std::move(stack.back());
    stack.pop_back();
    if (group.size() <= kOneSteinerMaxPins) {
      SteinerTree sub = build_small(group);
      // Graft sub's edges into the merged tree, creating Steiner nodes as
      // needed. Coincident points across subtrees unify automatically.
      std::vector<int> remap(sub.nodes.size());
      for (std::size_t v = 0; v < sub.nodes.size(); ++v) {
        remap[v] = merger.node_for(sub.nodes[v], true);
      }
      for (const auto& [a, b] : sub.edges) {
        const int ra = remap[static_cast<std::size_t>(a)];
        const int rb = remap[static_cast<std::size_t>(b)];
        if (ra != rb) merger.out.edges.emplace_back(ra, rb);
      }
      continue;
    }

    const geom::Rect box = geom::Rect::bounding_box(group);
    const bool split_x = box.width() >= box.height();
    std::sort(group.begin(), group.end(), [&](const Point& a, const Point& b) {
      return split_x ? std::tie(a.x, a.y) < std::tie(b.x, b.y)
                     : std::tie(a.y, a.x) < std::tie(b.y, b.x);
    });
    const std::size_t mid = group.size() / 2;
    std::vector<Point> lo(group.begin(), group.begin() + mid + 1);  // shares group[mid]
    std::vector<Point> hi(group.begin() + mid, group.end());
    stack.push_back(std::move(lo));
    stack.push_back(std::move(hi));
  }

  // Subtrees may reuse points, producing parallel edges or cycles; prune to
  // a spanning tree by keeping a minimal acyclic edge subset (Kruskal-style
  // on the already-built edges, shortest first).
  {
    SteinerTree& t = merger.out;
    std::vector<std::size_t> order(t.edges.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
      const auto len = [&](std::size_t k) {
        return geom::manhattan(t.nodes[static_cast<std::size_t>(t.edges[k].first)],
                               t.nodes[static_cast<std::size_t>(t.edges[k].second)]);
      };
      return len(i) < len(j);
    });
    std::vector<int> parent(t.nodes.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
      return parent[static_cast<std::size_t>(x)] == x
                 ? x
                 : parent[static_cast<std::size_t>(x)] = find(parent[static_cast<std::size_t>(x)]);
    };
    std::vector<std::pair<int, int>> kept;
    kept.reserve(t.nodes.size() - 1);
    for (std::size_t i : order) {
      const auto [a, b] = t.edges[i];
      const int ra = find(a), rb = find(b);
      if (ra != rb) {
        parent[static_cast<std::size_t>(ra)] = rb;
        kept.push_back(t.edges[i]);
      }
    }
    t.edges = std::move(kept);
  }

  merger.out.simplify();
  assert(merger.out.is_spanning_tree());
  return merger.out;
}

}  // namespace dgr::rsmt
