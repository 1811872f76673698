#pragma once
// Kahng–Robins iterated 1-Steiner heuristic.
//
// Repeatedly adds the Hanan-grid point whose inclusion most reduces the
// Manhattan MST length, until no candidate helps. Classic near-optimal
// RSMT heuristic (≈ 0.5–1% from optimum on random instances), used for
// mid-size nets where exact enumeration is too slow.

#include "rsmt/steiner_tree.hpp"

namespace dgr::rsmt {

struct OneSteinerOptions {
  /// Hard cap on the Hanan candidates scanned per round; candidates are
  /// subsampled deterministically when the grid is larger. 0 = no cap.
  std::size_t max_candidates = 512;
  /// Cap on added Steiner points (n-2 is the theoretical maximum).
  std::size_t max_steiner_points = 64;

  bool operator==(const OneSteinerOptions&) const = default;
};

SteinerTree iterated_one_steiner(const std::vector<Point>& pins,
                                 const OneSteinerOptions& opts = {});

}  // namespace dgr::rsmt
