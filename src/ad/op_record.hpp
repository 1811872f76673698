#pragma once
// Typed op records for the arena-backed Tape (DESIGN.md §5.2).
//
// Each differentiable op appends exactly one OpRecord — a tagged union of
// plain-old-data payloads — instead of a heap-allocated std::function
// closure. Tape::backward replays the record array in reverse with a switch
// (detail::run_backward, implemented next to the forward kernels in
// ops.cpp), so the backward pass is a flat loop over contiguous records:
// no virtual dispatch, no closure indirection, no per-op allocation.
//
// Pointer payloads (offset / index / CSR arrays) follow the ops.hpp lifetime
// contract: they are borrowed from the caller and must outlive the Tape.
// Everything the tape must own (weighted_sum weights, combine coefficients,
// fused-overflow activation scratch) lives in the tape's pools and is
// referenced here by offset. Node references are raw std::int32_t indices
// (NodeId::idx) so every payload is a trivial POD and the union stays
// default-constructible and trivially copyable.

#include <cstdint>

namespace dgr::ad {

struct NodeId {
  std::int32_t idx = -1;
  bool valid() const { return idx >= 0; }
};

enum class OpKind : std::uint8_t {
  kSegmentSoftmax,
  kWeightedSum,
  kCombine,
  kFusedSoftmaxDemand,
  kFusedOverflow,
};

struct OpRecord {
  OpKind kind = OpKind::kSegmentSoftmax;
  std::uint8_t act = 0;  ///< ad::Activation, stored raw to avoid an ops.hpp cycle
  float scalar = 0.0f;   ///< temperature (softmaxes) or alpha (fused overflow)

  struct SoftmaxRec {
    std::int32_t x, out;
    const std::int32_t* offsets;
    std::uint32_t groups;
  };
  struct WeightedSumRec {
    std::int32_t x, out;
    std::uint32_t n;
    std::uint32_t w_off;  ///< float-pool offset; w_len == 0 means plain sum
    std::uint32_t w_len;
  };
  struct CombineRec {
    std::int32_t out;
    std::uint32_t ids_off;   ///< int-pool offset of the input node indices
    std::uint32_t coef_off;  ///< float-pool offset of the coefficients
    std::uint32_t count;
  };
  struct FusedSelRec {
    std::int32_t path_logits, tree_logits, p, q, eff, demand;
    const std::int32_t* path_offsets;
    const std::int32_t* tree_offsets;
    const std::int32_t* path_tree;
    const std::int32_t* tree_path_offsets;
    const std::uint32_t* bwd_offsets;
    const std::int32_t* bwd_cols;
    const float* bwd_weights;
    std::uint32_t np, nt, n_pgroups, n_tgroups;
  };
  struct FusedOverflowRec {
    std::int32_t x, out;
    const float* c;
    std::uint32_t n;
    std::uint32_t scratch_off;  ///< float-pool offset of the activated values
  };

  union {
    SoftmaxRec softmax;
    WeightedSumRec wsum;
    CombineRec combine;
    FusedSelRec fused_sel;
    FusedOverflowRec fused_over;
  } u = {};
};

class Tape;

namespace detail {
/// Replays one record's backward kernel. Implemented in ops.cpp so the
/// backward kernels live next to their forward counterparts.
void run_backward(Tape& tape, const OpRecord& rec);
}  // namespace detail

}  // namespace dgr::ad
