#include "core/relaxation.hpp"

#include <cassert>

namespace dgr::core {

Relaxation Relaxation::build(const dag::DagForest& forest) {
  Relaxation r;
  r.forest = &forest;

  const auto& subnets = forest.subnets();
  const auto& paths = forest.paths();

  r.path_group_offsets.reserve(subnets.size() + 1);
  r.path_group_offsets.push_back(0);
  for (const dag::Subnet& s : subnets) {
    // Pools are built in order, so path slices are contiguous.
    assert(s.path_begin == r.path_group_offsets.back());
    r.path_group_offsets.push_back(s.path_end);
  }
  assert(static_cast<std::size_t>(r.path_group_offsets.back()) == paths.size());

  r.tree_group_offsets = forest.net_tree_offsets();

  // Paths are generated tree-by-tree, so per-tree path ranges are contiguous
  // (counting sort over an already-sorted key).
  r.tree_path_offsets.assign(forest.trees().size() + 1, 0);
  for (const dag::PathCandidate& p : paths) {
    ++r.tree_path_offsets[static_cast<std::size_t>(p.tree) + 1];
  }
  for (std::size_t t = 1; t < r.tree_path_offsets.size(); ++t) {
    r.tree_path_offsets[t] += r.tree_path_offsets[t - 1];
  }
#ifndef NDEBUG
  for (std::size_t i = 1; i < paths.size(); ++i) {
    assert(paths[i - 1].tree <= paths[i].tree && "paths must be tree-major");
  }
#endif

  r.path_tree.reserve(paths.size());
  r.path_inc_offsets.reserve(paths.size() + 1);
  r.wirelength.reserve(paths.size());
  r.turns.reserve(paths.size());
  for (const dag::PathCandidate& p : paths) {
    r.path_tree.push_back(p.tree);
    r.path_inc_offsets.push_back(p.inc_begin);
    r.wirelength.push_back(p.wirelength);
    r.turns.push_back(static_cast<float>(p.turns));
  }
  r.path_inc_offsets.push_back(static_cast<std::uint32_t>(forest.inc_edges().size()));

  // Path logits come first in the solver's parameter vector, tree logits
  // after them at offset |P|.
  auto list_trainable = [&r](const std::vector<std::int32_t>& offsets, std::int32_t base) {
    for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
      if (offsets[g + 1] - offsets[g] < 2) continue;
      for (std::int32_t i = offsets[g]; i < offsets[g + 1]; ++i) r.trainable.push_back(base + i);
    }
  };
  list_trainable(r.path_group_offsets, 0);
  list_trainable(r.tree_group_offsets, static_cast<std::int32_t>(paths.size()));

  r.incidence.fwd_offsets = &forest.edge_inc_offsets();
  r.incidence.fwd_cols = &forest.edge_inc_paths();
  r.incidence.fwd_weights = &forest.edge_inc_weights();
  r.incidence.bwd_offsets = &r.path_inc_offsets;
  r.incidence.bwd_cols = &forest.inc_edges();
  r.incidence.bwd_weights = &forest.inc_weights();
  return r;
}

std::size_t Relaxation::memory_bytes() const {
  return path_group_offsets.capacity() * sizeof(std::int32_t) +
         tree_group_offsets.capacity() * sizeof(std::int32_t) +
         path_tree.capacity() * sizeof(std::int32_t) +
         tree_path_offsets.capacity() * sizeof(std::int32_t) +
         path_inc_offsets.capacity() * sizeof(std::uint32_t) +
         trainable.capacity() * sizeof(std::int32_t) +
         wirelength.capacity() * sizeof(float) + turns.capacity() * sizeof(float);
}

}  // namespace dgr::core
