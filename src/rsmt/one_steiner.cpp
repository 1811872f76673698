#include "rsmt/one_steiner.hpp"

#include <algorithm>
#include <cassert>

namespace dgr::rsmt {

namespace {

/// Hard cap on the Hanan candidates scanned per round; candidates are
/// subsampled deterministically when the grid is larger.
constexpr std::size_t kMaxCandidates = 512;
/// Cap on added Steiner points (n-2 is the theoretical maximum).
constexpr std::size_t kMaxSteinerPoints = 64;

}  // namespace

SteinerTree iterated_one_steiner(const std::vector<Point>& pins) {
  if (pins.size() <= 2) return manhattan_mst(pins);

  // Working point set: pins plus accepted Steiner points.
  std::vector<Point> points = pins;
  std::int64_t current_len = manhattan_mst_length(points);

  const auto hanan = geom::HananGrid::from_points(pins);
  std::vector<Point> candidates;
  candidates.reserve(hanan.size());
  for (std::size_t i = 0; i < hanan.size(); ++i) candidates.push_back(hanan.point(i));
  // Deterministic subsample if the Hanan grid is very large: keep a strided
  // selection, which spreads candidates evenly over the grid.
  if (candidates.size() > kMaxCandidates) {
    std::vector<Point> sampled;
    sampled.reserve(kMaxCandidates);
    const double stride =
        static_cast<double>(candidates.size()) / static_cast<double>(kMaxCandidates);
    for (std::size_t k = 0; k < kMaxCandidates; ++k) {
      sampled.push_back(candidates[static_cast<std::size_t>(k * stride)]);
    }
    candidates = std::move(sampled);
  }

  std::size_t added = 0;
  const std::size_t budget = std::min(kMaxSteinerPoints, pins.size() - 2);
  while (added < budget) {
    std::int64_t best_len = current_len;
    std::size_t best_idx = candidates.size();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const Point& cand = candidates[c];
      if (std::find(points.begin(), points.end(), cand) != points.end()) continue;
      points.push_back(cand);
      const std::int64_t len = manhattan_mst_length(points);
      points.pop_back();
      if (len < best_len) {
        best_len = len;
        best_idx = c;
      }
    }
    if (best_idx == candidates.size()) break;  // no improving candidate
    points.push_back(candidates[best_idx]);
    current_len = best_len;
    ++added;
  }

  SteinerTree tree = manhattan_mst(points);
  tree.pin_count = pins.size();
  tree.simplify();
  assert(tree.is_spanning_tree());
  return tree;
}

}  // namespace dgr::rsmt
