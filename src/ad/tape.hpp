#pragma once
// Arena-backed SoA tape for reverse-mode automatic differentiation over flat
// float arrays.
//
// This is the deep-learning-toolkit substrate of the paper (PyTorch in the
// original): DGR's forward cost is assembled from the ops in ad/ops.hpp on a
// Tape; Tape::backward() replays the recorded ops in reverse to produce
// gradients for the Adam optimizer. A "tensor" here is a 1-D float array —
// all of DGR's state (path logits, tree logits, demand map) is naturally
// flat, and group structure is carried by offset arrays, not shapes.
//
// Storage layout (DESIGN.md §5.2): nodes do not own vectors. Every node's
// value is a slice of one per-tape float arena and every grad a slice of one
// double arena; value(id)/grad(id) hand out std::span views into them. The
// op log is a flat array of typed OpRecords (ad/op_record.hpp) replayed by a
// switch — no std::function closures, no per-op heap allocation.
//
// Reuse contract: reset() rewinds the tape to empty but keeps every arena's
// capacity, so a solver that re-records the same graph each iteration
// reaches a zero-malloc steady state after its first iteration. Any arena
// growth on a reset tape increments the `obs.ad.arena_regrowth` counter
// metric (the obs.convergence.unreserved_growth pattern), which the ad tests
// and the pipeline bench assert stays at zero once warm.
//
// View invalidation: spans point into the arenas, and recording a new node
// may grow (reallocate) them. Take value()/grad() views AFTER the last op
// that creates nodes — inside op kernels, after every make_node of the op.
// backward() creates no nodes, so views taken after the graph is built stay
// valid through the backward pass and after it.
//
// Gradients accumulate in double precision: the demand reductions sum up to
// millions of terms and float accumulation visibly degrades Adam steps. The
// grad arena is zeroed lazily, in one pass at the top of backward() — a
// forward-only tape never touches it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ad/op_record.hpp"

namespace dgr::ad {

class Tape {
 public:
  /// Creates a leaf node holding a copy of `value`.
  NodeId input(const std::vector<float>& value);
  /// Creates a leaf from raw data.
  NodeId input(const float* data, std::size_t size);

  std::span<const float> value(NodeId id) const {
    const std::size_t i = check(id);
    return {values_.data() + node_offset_[i], node_size_[i]};
  }
  /// Valid after backward(); a reset tape's grads are stale until then.
  std::span<const double> grad(NodeId id) const {
    const std::size_t i = check(id);
    return {grads_.data() + node_offset_[i], node_size_[i]};
  }
  std::size_t size(NodeId id) const { return node_size_[check(id)]; }

  /// Zeroes the grad arena, seeds d(root)/d(root) = 1 (root must be a
  /// scalar, i.e. size 1) and replays every recorded op's backward in
  /// reverse order.
  void backward(NodeId root);

  /// Rewinds the tape to empty, keeping arena/pool/record capacity. After
  /// the first reset the tape is "warm": any further capacity growth bumps
  /// the obs.ad.arena_regrowth counter metric.
  void reset();

  std::size_t node_count() const { return node_size_.size(); }
  /// High-water bytes held by the tape across its lifetime — arena and pool
  /// capacities, not the live-slice sum — the Fig. 5b "GPU memory" proxy.
  /// Monotone under reuse: reset() keeps capacity, so this reports the peak.
  std::size_t memory_bytes() const;

  // ---- op-author interface (used by ops.cpp) ------------------------------
  /// New node with a zero-initialised value slice.
  NodeId make_node(std::size_t size);
  /// New node whose value slice the op overwrites entirely (skips the zero).
  NodeId make_node_uninit(std::size_t size);
  std::span<float> mutable_value(NodeId id) {
    const std::size_t i = check(id);
    return {values_.data() + node_offset_[i], node_size_[i]};
  }
  std::span<double> mutable_grad(NodeId id) {
    const std::size_t i = check(id);
    return {grads_.data() + node_offset_[i], node_size_[i]};
  }

  /// Copies `n` floats/ints into the tape-owned pool; returns the offset.
  /// Pool data lives until reset() — ops stash weights and scratch here
  /// instead of capturing copies.
  std::uint32_t own_floats(const float* data, std::size_t n);
  std::uint32_t own_ints(const std::int32_t* data, std::size_t n);
  /// Uninitialised float-pool scratch (e.g. fused-overflow activations).
  std::uint32_t alloc_scratch_floats(std::size_t n);
  float* pool_floats(std::uint32_t off) { return float_pool_.data() + off; }
  const float* pool_floats(std::uint32_t off) const { return float_pool_.data() + off; }
  const std::int32_t* pool_ints(std::uint32_t off) const { return int_pool_.data() + off; }

  /// Appends a typed op record; records replay in reverse append order.
  void push_record(const OpRecord& record);

 private:
  std::size_t check(NodeId id) const;
  /// Grows the value/grad arenas to `needed` elements (counting regrowth
  /// when warm) and returns the slice offset.
  std::uint32_t grow_arena(std::size_t size);
  void note_regrowth();

  // Node table (SoA): offset into the arenas + slice length per node.
  std::vector<std::uint32_t> node_offset_;
  std::vector<std::uint32_t> node_size_;

  std::vector<float> values_;   ///< one float arena for every node value
  std::vector<double> grads_;   ///< one double arena for every node grad
  std::vector<float> float_pool_;      ///< tape-owned weights / scratch
  std::vector<std::int32_t> int_pool_; ///< tape-owned index lists
  std::vector<OpRecord> records_;

  std::size_t arena_used_ = 0;
  bool warm_ = false;  ///< set by reset(); gates the regrowth counter

  // Rotating cache-colour counters (see colored_offset in tape.cpp): arena
  // and pool slices are staggered so consecutive nodes are never
  // 4K-congruent. Reset with the tape so re-recorded layouts are identical.
  std::uint32_t color_ = 0;
  std::uint32_t pool_color_ = 0;
};

}  // namespace dgr::ad
