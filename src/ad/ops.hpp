#pragma once
// Differentiable operations on Tape arrays — exactly the kernel set DGR's
// forward pass (Fig. 4 of the paper) needs.
//
// Group structure (subnets over paths, nets over trees) is expressed with
// CSR-style offset arrays; sparse incidence (paths <-> g-cell edges) with a
// forward CSR and its transpose so both directions are deterministic
// parallel loops over rows they own.

#include <cstdint>
#include <vector>

#include "ad/activation.hpp"
#include "ad/tape.hpp"

namespace dgr::ad {

// LIFETIME CONTRACT: offset/index/CSR arrays passed by reference or pointer
// (segment_softmax offsets, gather_mul index, SparseIncidence arrays,
// fused_overflow_cost's capacity vector) are borrowed by the recorded
// OpRecord and MUST outlive the Tape (until reset()). weighted_sum's weight
// vector and combine's inputs are copied into the tape pools and may be
// temporaries.
//
// Each op appends one typed OpRecord (ad/op_record.hpp) replayed by
// Tape::backward; the hot kernels route through ad/simd.hpp when the
// DGR_SIMD build has AVX2 enabled at runtime (scalar fallback otherwise).

/// Softmax within each group g over [offsets[g], offsets[g+1]):
///   y_i = exp((x_i + noise_i)/t) / Σ_group exp((x_k + noise_k)/t)
/// `noise` (optional, same size as x) carries Gumbel samples; with noise and
/// t=1 this is the Gumbel-Softmax of the paper, without noise a plain
/// softmax. Numerically stabilised by per-group max subtraction. A
/// one-element group is written as exactly 1 and its backward adds nothing
/// to grad(x) — what the general formula gives for finite inputs. `offsets`
/// = {0} (no groups) is a legal empty op.
NodeId segment_softmax(Tape& tape, NodeId x, const std::vector<std::int32_t>& offsets,
                       float temperature, const std::vector<float>* noise = nullptr);

/// out[i] = q[index[i]] * p[i] — the y_tree(i) * x_i coupling of Eqs. (4)-(6).
NodeId gather_mul(Tape& tape, NodeId q, const std::vector<std::int32_t>& index, NodeId p);

/// Sparse weighted reduction with an explicit transpose:
///   out[r] = Σ_{k in [fwd_offsets[r], fwd_offsets[r+1])} fwd_weights[k] * x[fwd_cols[k]]
/// Backward uses the transpose CSR (rows = x entries, cols = out rows):
///   gx[i] = Σ_{k in [bwd_offsets[i], bwd_offsets[i+1])} bwd_weights[k] * gout[bwd_cols[k]]
/// The caller must supply a genuine transpose pair (checked in debug builds).
struct SparseIncidence {
  const std::vector<std::uint32_t>* fwd_offsets = nullptr;
  const std::vector<std::int32_t>* fwd_cols = nullptr;
  const std::vector<float>* fwd_weights = nullptr;
  const std::vector<std::uint32_t>* bwd_offsets = nullptr;
  const std::vector<std::int32_t>* bwd_cols = nullptr;
  const std::vector<float>* bwd_weights = nullptr;
};
NodeId spmv(Tape& tape, NodeId x, const SparseIncidence& inc);

/// out = x - c (elementwise with a constant vector): demand - capacity.
NodeId sub_const(Tape& tape, NodeId x, const std::vector<float>& c);

/// Elementwise activation. `alpha` parameterises LeakyReLU slope / CELU
/// alpha; ignored by the others. Exp is clamped at x <= 30 for stability.
NodeId apply_activation(Tape& tape, NodeId x, Activation act, float alpha = 1.0f);

/// Scalar Σ_i w_i * x_i (pass empty w for a plain sum). Accumulates in double.
NodeId weighted_sum(Tape& tape, NodeId x, const std::vector<float>& w = {});

// ---------------------------------------------------------------------------
// Fused kernels — the per-iteration hot path of DgrSolver submitted as
// multi-stage jobs on util::ParallelRuntime (one pool wakeup per chain
// instead of one per primitive), with matching fused backward kernels.
// Bitwise equal to the unfused ops per stage; only the overflow reduction
// uses a different (still deterministic) summation order.
// ---------------------------------------------------------------------------

/// Nodes produced by fused_softmax_demand. p/q are exposed for tests and
/// introspection; eff and demand feed the rest of the objective.
struct FusedSelectionDemand {
  NodeId p;       ///< per-path probabilities (softmax over subnet groups)
  NodeId q;       ///< per-tree probabilities (softmax over net groups)
  NodeId eff;     ///< eff_i = q[path_tree[i]] * p_i (Eqs. 4-6 coupling)
  NodeId demand;  ///< per-edge expected demand (Eq. 10 scatter)
};

/// Fuses the selection chain p = softmax(x_p), q = softmax(x_q),
/// eff = gather_mul(q, path_tree, p), demand = spmv(eff, inc) into ONE
/// fused parallel job (3 stages forward, 3 stages backward). `noise`
/// pointers carry Gumbel samples, and one-element or zero groups behave, as
/// in segment_softmax.
///
/// `tree_path_offsets` (size |trees|+1) gives each tree's contiguous path
/// range — paths are tree-major in the DAG forest pools — and lets the
/// backward scatter into q be a deterministic parallel loop over trees
/// instead of a serial pass over paths. Offset/index arrays follow the
/// lifetime contract above (captured by reference; must outlive the Tape).
FusedSelectionDemand fused_softmax_demand(
    Tape& tape, NodeId path_logits, NodeId tree_logits,
    const std::vector<std::int32_t>& path_offsets,
    const std::vector<std::int32_t>& tree_offsets,
    const std::vector<std::int32_t>& path_tree,
    const std::vector<std::int32_t>& tree_path_offsets, const SparseIncidence& inc,
    float temperature, const std::vector<float>* path_noise = nullptr,
    const std::vector<float>* tree_noise = nullptr);

/// Fused overflow cost: scalar Σ_i f(x_i - c_i) in one blocked pass —
/// activation and reduction fused, no slack / activated intermediate nodes.
/// The reduction sums fixed `block`-sized slices into owned partial slots
/// (double), then combines them in index order: bitwise thread-count
/// invariant. Backward recomputes f'(x_i - c_i) in a single blocked pass.
/// `block` is exposed so tests can exercise the multi-block path cheaply.
NodeId fused_overflow_cost(Tape& tape, NodeId x, const std::vector<float>& c,
                           Activation act, float alpha = 1.0f,
                           std::size_t block = 4096);

/// Scalar linear combination Σ_k coef_k * scalar_k of scalar nodes.
NodeId combine(Tape& tape, const std::vector<NodeId>& scalars,
               const std::vector<float>& coefs);

}  // namespace dgr::ad
