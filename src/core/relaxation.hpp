#pragma once
// Continuous relaxation plumbing (Section 4.3): flattens the DAG forest's
// grouping and incidence into the arrays the ad:: kernels consume. Built
// once per forest; owned by the solver so the Tape's by-reference captures
// stay valid.

#include <cstdint>
#include <vector>

#include "ad/ops.hpp"
#include "dag/forest.hpp"

namespace dgr::core {

struct Relaxation {
  const dag::DagForest* forest = nullptr;

  /// Paths grouped by subnet: softmax groups for p (Eq. 7). Size |S|+1.
  std::vector<std::int32_t> path_group_offsets;
  /// Trees grouped by net: softmax groups for q (Eq. 8). Size |N|+1.
  std::vector<std::int32_t> tree_group_offsets;
  /// Owning tree-candidate index per path (the gather of q_tree(i)). Size |P|.
  std::vector<std::int32_t> path_tree;
  /// Contiguous path range per tree candidate (paths are tree-major in the
  /// forest pools). Size |T|+1. Lets the fused backward scatter into q be a
  /// deterministic parallel loop over trees.
  std::vector<std::int32_t> tree_path_offsets;
  /// Transposed-incidence row offsets per path. Size |P|+1.
  std::vector<std::uint32_t> path_inc_offsets;
  /// The trainable logits: ascending indices into the solver's
  /// [path logits | tree logits] vector of every candidate in a group of two
  /// or more. A one-candidate group's softmax is exactly 1 and its logit
  /// gradient exactly 0, so its logit is inert and the per-step noise,
  /// softmax and Adam work skip it (DESIGN.md §5.3).
  std::vector<std::int32_t> trainable;

  /// WL_i per path (Eq. 4) and TP_i per path (Eq. 5). Size |P|.
  std::vector<float> wirelength;
  std::vector<float> turns;

  /// Wired to the forest's CSR pair; rows = g-cell edges.
  ad::SparseIncidence incidence;

  // incidence.bwd_offsets points at this struct's own path_inc_offsets, so
  // relocation must re-bind it: the move operations do, and copying is
  // disabled (every owner holds exactly one Relaxation per forest anyway).
  Relaxation() = default;
  Relaxation(Relaxation&& other) noexcept { *this = std::move(other); }
  Relaxation& operator=(Relaxation&& other) noexcept {
    forest = other.forest;
    path_group_offsets = std::move(other.path_group_offsets);
    tree_group_offsets = std::move(other.tree_group_offsets);
    path_tree = std::move(other.path_tree);
    tree_path_offsets = std::move(other.tree_path_offsets);
    path_inc_offsets = std::move(other.path_inc_offsets);
    trainable = std::move(other.trainable);
    wirelength = std::move(other.wirelength);
    turns = std::move(other.turns);
    incidence = other.incidence;
    incidence.bwd_offsets = &path_inc_offsets;
    return *this;
  }
  Relaxation(const Relaxation&) = delete;
  Relaxation& operator=(const Relaxation&) = delete;

  std::size_t path_count() const { return path_tree.size(); }
  std::size_t tree_count() const { return forest->trees().size(); }
  std::size_t subnet_count() const { return path_group_offsets.size() - 1; }
  std::size_t logit_count() const { return path_count() + tree_count(); }

  static Relaxation build(const dag::DagForest& forest);

  std::size_t memory_bytes() const;
};

}  // namespace dgr::core
