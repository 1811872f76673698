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

#include "ad/tape.hpp"

namespace dgr::ad {

/// The overflow activations studied in Fig. 6 of the paper.
enum class Activation { kReLU, kSigmoid, kLeakyReLU, kExp, kCELU };
const char* activation_name(Activation a);

// LIFETIME CONTRACT: offset/index/CSR arrays passed by reference or pointer
// (segment_softmax offsets, fused_softmax_demand's group, path_tree and
// SparseIncidence arrays, fused_overflow_cost's capacity vector) are
// borrowed by the recorded OpRecord and MUST outlive the Tape (until
// reset()). weighted_sum's weight vector and combine's inputs are copied
// into the tape pools and may be temporaries.
//
// Each op appends one typed OpRecord (ad/op_record.hpp) replayed by
// Tape::backward.

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

/// Scalar Σ_i w_i * x_i (pass empty w for a plain sum). Accumulates in double.
NodeId weighted_sum(Tape& tape, NodeId x, const std::vector<float>& w = {});

/// Scalar linear combination Σ_k coef_k * scalar_k of scalar nodes.
NodeId combine(Tape& tape, const std::vector<NodeId>& scalars,
               const std::vector<float>& coefs);

// ---------------------------------------------------------------------------
// Fused kernels — the per-iteration hot path of DgrSolver submitted as
// multi-stage jobs on util::ParallelRuntime (one pool wakeup per chain),
// with matching fused backward kernels.
// ---------------------------------------------------------------------------

/// Path <-> edge incidence with an explicit transpose. The forward CSR
/// (rows = edges, cols = paths) gives the demand reduction
///   demand[r] = Σ_{k in [fwd_offsets[r], fwd_offsets[r+1])} fwd_weights[k] * eff[fwd_cols[k]]
/// and the transpose (rows = paths, cols = edges) its backward
///   g_eff[i] = Σ_{k in [bwd_offsets[i], bwd_offsets[i+1])} bwd_weights[k] * g_demand[bwd_cols[k]]
/// The caller must supply a genuine transpose pair.
struct SparseIncidence {
  const std::vector<std::uint32_t>* fwd_offsets = nullptr;
  const std::vector<std::int32_t>* fwd_cols = nullptr;
  const std::vector<float>* fwd_weights = nullptr;
  const std::vector<std::uint32_t>* bwd_offsets = nullptr;
  const std::vector<std::int32_t>* bwd_cols = nullptr;
  const std::vector<float>* bwd_weights = nullptr;
};

/// Nodes produced by fused_softmax_demand. p/q are exposed for tests and
/// introspection; eff and demand feed the rest of the objective.
struct FusedSelectionDemand {
  NodeId p;       ///< per-path probabilities (softmax over subnet groups)
  NodeId q;       ///< per-tree probabilities (softmax over net groups)
  NodeId eff;     ///< eff_i = q[path_tree[i]] * p_i (Eqs. 4-6 coupling)
  NodeId demand;  ///< per-edge expected demand (Eq. 10 scatter)
};

/// The selection chain as ONE fused parallel job (3 stages forward, 3
/// stages backward): p = softmax over `path_offsets` groups of path_logits,
/// q = softmax over `tree_offsets` groups of tree_logits (both as in
/// segment_softmax, so one-element or zero groups behave the same; the
/// `noise` pointers carry Gumbel samples), eff_i = q[path_tree[i]] * p_i,
/// and demand = the forward CSR of `inc` applied to eff.
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
/// `alpha` parameterises the LeakyReLU slope (alpha * 0.01) and the CELU
/// alpha; the others ignore it. Exp arguments are clamped at 30.
/// The reduction sums fixed `block`-sized slices into owned partial slots
/// (double), then combines them in index order: bitwise thread-count
/// invariant. Backward recomputes f'(x_i - c_i) in a single blocked pass.
/// `block` is exposed so tests can exercise the multi-block path cheaply.
NodeId fused_overflow_cost(Tape& tape, NodeId x, const std::vector<float>& c,
                           Activation act, float alpha = 1.0f,
                           std::size_t block = 4096);

}  // namespace dgr::ad
