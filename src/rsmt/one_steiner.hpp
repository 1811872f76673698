#pragma once
// Kahng–Robins iterated 1-Steiner heuristic.
//
// Repeatedly adds the Hanan-grid point whose inclusion most reduces the
// Manhattan MST length, until no candidate helps. Classic near-optimal
// RSMT heuristic (≈ 0.5–1% from optimum on random instances), used for
// mid-size nets where exact enumeration is too slow.

#include "rsmt/steiner_tree.hpp"

namespace dgr::rsmt {

SteinerTree iterated_one_steiner(const std::vector<Point>& pins);

}  // namespace dgr::rsmt
