#include "ad/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace dgr::ad {
namespace {

constexpr std::size_t kParGrain = 2048;

/// Records store raw node indices; wrap them back for tape accessors.
inline NodeId nid(std::int32_t idx) { return NodeId{idx}; }

// The one definition of each activation in Fig. 6.
inline float act_forward(Activation act, float alpha, float v) {
  switch (act) {
    case Activation::kReLU:
      return v > 0.0f ? v : 0.0f;
    case Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Activation::kLeakyReLU:
      return v > 0.0f ? v : alpha * 0.01f * v;
    case Activation::kExp:
      return std::exp(std::min(v, 30.0f));
    case Activation::kCELU:
      return v > 0.0f ? v : alpha * (std::exp(std::min(v, 30.0f) / alpha) - 1.0f);
  }
  return 0.0f;
}

// Derivative expressed from input v and output y (cheap for sigmoid/exp).
inline double act_derivative(Activation act, float alpha, float v, float y) {
  switch (act) {
    case Activation::kReLU:
      return v > 0.0f ? 1.0 : 0.0;
    case Activation::kSigmoid:
      return static_cast<double>(y) * (1.0 - y);
    case Activation::kLeakyReLU:
      return v > 0.0f ? 1.0 : alpha * 0.01;
    case Activation::kExp:
      return v < 30.0f ? static_cast<double>(y) : 0.0;
    case Activation::kCELU:
      return v > 0.0f ? 1.0 : std::exp(std::min(v, 30.0f) / alpha);
  }
  return 0.0;
}

/// Softmax over one group [lo, hi) of (x + noise)/t into y, bitwise
/// worker-count deterministic.
void softmax_group(const float* x, const float* noise, float* y, std::size_t lo,
                   std::size_t hi, float temperature) {
  if (lo == hi) return;
  if (hi - lo == 1) {
    // exp(l - l) / 1 is exactly 1 for any finite l above the -1e30 max seed.
    y[lo] = 1.0f;
    return;
  }
  float mx = -1e30f;
  for (std::size_t i = lo; i < hi; ++i) {
    const float logit = (x[i] + (noise != nullptr ? noise[i] : 0.0f)) / temperature;
    y[i] = logit;  // stage logits in the output buffer
    mx = std::max(mx, logit);
  }
  double denom = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const float e = std::exp(y[i] - mx);
    y[i] = e;
    denom += e;
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::size_t i = lo; i < hi; ++i) y[i] *= inv;
}

/// Softmax forward over a chunk of groups [glo, ghi).
void softmax_groups(const float* x, const float* noise, float* y,
                    const std::int32_t* offsets, std::size_t glo, std::size_t ghi,
                    float temperature) {
  for (std::size_t g = glo; g < ghi; ++g) {
    softmax_group(x, noise, y, static_cast<std::size_t>(offsets[g]),
                  static_cast<std::size_t>(offsets[g + 1]), temperature);
  }
}

/// Softmax backward for one group: gx_k += y_k/t * (gy_k - Σ_j gy_j y_j).
/// A one-element group adds (gy - gy·1)/t = +0 for finite gy, so its gx is
/// left untouched.
void softmax_group_backward(const float* y, const double* gy, double* gx,
                            std::size_t lo, std::size_t hi, float temperature) {
  if (hi - lo < 2) return;
  double dot = 0.0;
  for (std::size_t i = lo; i < hi; ++i) dot += gy[i] * y[i];
  const double inv_t = 1.0 / temperature;
  for (std::size_t i = lo; i < hi; ++i) gx[i] += y[i] * inv_t * (gy[i] - dot);
}

void softmax_groups_backward(const float* y, const double* gy, double* gx,
                             const std::int32_t* offsets, std::size_t glo,
                             std::size_t ghi, float temperature) {
  for (std::size_t g = glo; g < ghi; ++g) {
    softmax_group_backward(y, gy, gx, static_cast<std::size_t>(offsets[g]),
                           static_cast<std::size_t>(offsets[g + 1]), temperature);
  }
}

void gather_mul_range(const float* q, const std::int32_t* index, const float* p,
                      float* out, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = q[static_cast<std::size_t>(index[i])] * p[i];
  }
}

// ---------------------------------------------------------------------------
// Backward kernels, one per OpKind — called from detail::run_backward.
// Pointers are taken from the tape at replay time: backward creates no
// nodes, so the arenas are stable for the whole reverse sweep.
// ---------------------------------------------------------------------------

void backward_segment_softmax(Tape& tape, const OpRecord& rec) {
  const auto& r = rec.u.softmax;
  const float* yv = tape.value(nid(r.out)).data();
  const double* gy = tape.grad(nid(r.out)).data();
  double* gx = tape.mutable_grad(nid(r.x)).data();
  const float temperature = rec.scalar;
  util::ParallelRuntime::for_blocked(
      0, static_cast<std::size_t>(r.groups),
      [&](std::size_t lo, std::size_t hi) {
        softmax_groups_backward(yv, gy, gx, r.offsets, lo, hi, temperature);
      },
      /*grain=*/256);
}

void backward_weighted_sum(Tape& tape, const OpRecord& rec) {
  const auto& r = rec.u.wsum;
  const double g = tape.grad(nid(r.out))[0];
  double* gx = tape.mutable_grad(nid(r.x)).data();
  const float* w = r.w_len != 0 ? tape.pool_floats(r.w_off) : nullptr;
  util::ParallelRuntime::for_blocked(
      0, static_cast<std::size_t>(r.n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) gx[i] += g * (w != nullptr ? w[i] : 1.0);
      },
      kParGrain);
}

void backward_combine(Tape& tape, const OpRecord& rec) {
  const auto& r = rec.u.combine;
  const double g = tape.grad(nid(r.out))[0];
  const std::int32_t* ids = tape.pool_ints(r.ids_off);
  const float* coefs = tape.pool_floats(r.coef_off);
  for (std::uint32_t k = 0; k < r.count; ++k) {
    tape.mutable_grad(NodeId{ids[k]})[0] += g * coefs[k];
  }
}

void backward_fused_sel(Tape& tape, const OpRecord& rec) {
  DGR_TRACE_SCOPE("ad.fused_softmax_demand.bwd");
  const auto& r = rec.u.fused_sel;
  const float temperature = rec.scalar;
  const std::size_t np = r.np;
  const std::size_t nt = r.nt;
  const std::size_t n_pgroups = r.n_pgroups;
  const std::size_t n_tgroups = r.n_tgroups;
  const float* pv = tape.value(nid(r.p)).data();
  const float* qv = tape.value(nid(r.q)).data();
  const double* gdemand = tape.grad(nid(r.demand)).data();
  double* geff = tape.mutable_grad(nid(r.eff)).data();  // += wl/via contributions
  double* gp = tape.mutable_grad(nid(r.p)).data();
  double* gq = tape.mutable_grad(nid(r.q)).data();
  double* gxp = tape.mutable_grad(nid(r.path_logits)).data();
  double* gxq = tape.mutable_grad(nid(r.tree_logits)).data();
  const std::uint32_t* boff = r.bwd_offsets;
  const std::int32_t* bcols = r.bwd_cols;
  const float* bw = r.bwd_weights;
  const std::int32_t* path_offsets = r.path_offsets;
  const std::int32_t* tree_offsets = r.tree_offsets;
  const std::int32_t* path_tree = r.path_tree;
  const std::int32_t* tree_path_offsets = r.tree_path_offsets;

  util::ParallelRuntime::fused(
      // Stage 1: demand -> eff through the transpose CSR (path-owned rows);
      // geff then holds the TOTAL upstream gradient of eff.
      util::stage_blocked(0, np, 512, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (std::uint32_t k = boff[i]; k < boff[i + 1]; ++k) {
            acc += static_cast<double>(bw[k]) * gdemand[static_cast<std::size_t>(bcols[k])];
          }
          geff[i] += acc;
        }
      }),
      // Stage 2: eff -> (p, q). gp rows are path-owned; gq rows are
      // tree-owned thanks to tree_path_offsets (paths are tree-major), so
      // no serial scatter is needed — both shards share one index space.
      util::stage_blocked(0, np + nt, kParGrain, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo, pe = hi < np ? hi : np; idx < pe; ++idx) {
          gp[idx] += geff[idx] * qv[static_cast<std::size_t>(path_tree[idx])];
        }
        for (std::size_t idx = lo > np ? lo : np; idx < hi; ++idx) {
          const std::size_t t = idx - np;
          double acc = 0.0;
          const auto plo = static_cast<std::size_t>(tree_path_offsets[t]);
          const auto phi = static_cast<std::size_t>(tree_path_offsets[t + 1]);
          for (std::size_t i = plo; i < phi; ++i) acc += geff[i] * pv[i];
          gq[t] += acc;
        }
      }),
      // Stage 3: both softmax backwards, sharing one group index space.
      util::stage_blocked(
          0, n_pgroups + n_tgroups, 256, [=](std::size_t lo, std::size_t hi) {
            const std::size_t pe = hi < n_pgroups ? hi : n_pgroups;
            if (lo < pe) {
              softmax_groups_backward(pv, gp, gxp, path_offsets, lo, pe, temperature);
            }
            const std::size_t tlo = lo > n_pgroups ? lo : n_pgroups;
            if (tlo < hi) {
              softmax_groups_backward(qv, gq, gxq, tree_offsets, tlo - n_pgroups,
                                      hi - n_pgroups, temperature);
            }
          }));
}

void backward_fused_overflow(Tape& tape, const OpRecord& rec) {
  DGR_TRACE_SCOPE("ad.fused_overflow_cost.bwd");
  const auto& r = rec.u.fused_over;
  const auto act = static_cast<Activation>(rec.act);
  const float alpha = rec.scalar;
  const std::size_t n = r.n;
  const double g = tape.grad(nid(r.out))[0];
  const float* xv = tape.value(nid(r.x)).data();
  const float* cv = r.c;
  const float* av = tape.pool_floats(r.scratch_off);
  double* gx = tape.mutable_grad(nid(r.x)).data();
  util::ParallelRuntime::for_blocked(
      0, n,
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          gx[i] += g * act_derivative(act, alpha, xv[i] - cv[i], av[i]);
        }
      },
      kParGrain);
}

}  // namespace

namespace detail {

void run_backward(Tape& tape, const OpRecord& rec) {
  switch (rec.kind) {
    case OpKind::kSegmentSoftmax:
      backward_segment_softmax(tape, rec);
      return;
    case OpKind::kWeightedSum:
      backward_weighted_sum(tape, rec);
      return;
    case OpKind::kCombine:
      backward_combine(tape, rec);
      return;
    case OpKind::kFusedSoftmaxDemand:
      backward_fused_sel(tape, rec);
      return;
    case OpKind::kFusedOverflow:
      backward_fused_overflow(tape, rec);
      return;
  }
}

}  // namespace detail

NodeId segment_softmax(Tape& tape, NodeId x, const std::vector<std::int32_t>& offsets,
                       float temperature, const std::vector<float>* noise) {
  if (offsets.empty()) throw std::invalid_argument("segment_softmax: empty offsets");
  if (temperature <= 0.0f) throw std::invalid_argument("segment_softmax: t must be > 0");
  const std::size_t n = tape.size(x);
  if (static_cast<std::size_t>(offsets.back()) != n) {
    throw std::invalid_argument("segment_softmax: offsets do not cover x");
  }
  if (noise != nullptr && noise->size() != n) {
    throw std::invalid_argument("segment_softmax: noise size mismatch");
  }

  // Zeroing make_node: offsets[0] may leave a leading gap that softmax never
  // writes but value() still exposes.
  NodeId out = tape.make_node(n);
  {
    const float* xv = tape.value(x).data();
    const float* nz = noise != nullptr ? noise->data() : nullptr;
    float* yv = tape.mutable_value(out).data();
    const std::size_t groups = offsets.size() - 1;
    const std::int32_t* off = offsets.data();
    util::ParallelRuntime::for_blocked(
        0, groups,
        [&](std::size_t lo, std::size_t hi) {
          softmax_groups(xv, nz, yv, off, lo, hi, temperature);
        },
        /*grain=*/256);
  }

  OpRecord rec;
  rec.kind = OpKind::kSegmentSoftmax;
  rec.scalar = temperature;
  rec.u.softmax = {x.idx, out.idx, offsets.data(),
                   static_cast<std::uint32_t>(offsets.size() - 1)};
  tape.push_record(rec);
  return out;
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kReLU: return "ReLU";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kLeakyReLU: return "LeakyReLU";
    case Activation::kExp: return "exp";
    case Activation::kCELU: return "CELU";
  }
  return "?";
}

NodeId weighted_sum(Tape& tape, NodeId x, const std::vector<float>& w) {
  const std::size_t n = tape.size(x);
  if (!w.empty() && w.size() != n) throw std::invalid_argument("weighted_sum: size mismatch");
  // The weights are copied into the tape's float pool: callers often pass
  // temporaries and the backward replay runs long after this call returns.
  const std::uint32_t w_off = w.empty() ? 0 : tape.own_floats(w.data(), w.size());
  NodeId out = tape.make_node_uninit(1);
  {
    const float* xv = tape.value(x).data();
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(xv[i]) * (w.empty() ? 1.0 : w[i]);
    tape.mutable_value(out)[0] = static_cast<float>(acc);
  }
  OpRecord rec;
  rec.kind = OpKind::kWeightedSum;
  rec.u.wsum = {x.idx, out.idx, static_cast<std::uint32_t>(n), w_off,
                static_cast<std::uint32_t>(w.size())};
  tape.push_record(rec);
  return out;
}

FusedSelectionDemand fused_softmax_demand(
    Tape& tape, NodeId path_logits, NodeId tree_logits,
    const std::vector<std::int32_t>& path_offsets,
    const std::vector<std::int32_t>& tree_offsets,
    const std::vector<std::int32_t>& path_tree,
    const std::vector<std::int32_t>& tree_path_offsets, const SparseIncidence& inc,
    float temperature, const std::vector<float>* path_noise,
    const std::vector<float>* tree_noise) {
  DGR_TRACE_SCOPE("ad.fused_softmax_demand");
  const std::size_t np = tape.size(path_logits);
  const std::size_t nt = tape.size(tree_logits);
  if (path_offsets.empty() || tree_offsets.empty()) {
    throw std::invalid_argument("fused_softmax_demand: empty offsets");
  }
  if (temperature <= 0.0f) {
    throw std::invalid_argument("fused_softmax_demand: t must be > 0");
  }
  if (static_cast<std::size_t>(path_offsets.back()) != np ||
      static_cast<std::size_t>(tree_offsets.back()) != nt) {
    throw std::invalid_argument("fused_softmax_demand: offsets do not cover logits");
  }
  if (path_tree.size() != np) {
    throw std::invalid_argument("fused_softmax_demand: path_tree size mismatch");
  }
  if (tree_path_offsets.size() != nt + 1 ||
      static_cast<std::size_t>(tree_path_offsets.back()) != np) {
    throw std::invalid_argument("fused_softmax_demand: tree_path_offsets mismatch");
  }
  if ((path_noise != nullptr && path_noise->size() != np) ||
      (tree_noise != nullptr && tree_noise->size() != nt)) {
    throw std::invalid_argument("fused_softmax_demand: noise size mismatch");
  }
  if (inc.bwd_offsets->size() != np + 1) {
    throw std::invalid_argument("fused_softmax_demand: transpose rows != path count");
  }
  if (inc.fwd_cols->size() != inc.fwd_weights->size() ||
      inc.bwd_cols->size() != inc.bwd_weights->size() ||
      inc.fwd_cols->size() != inc.bwd_cols->size()) {
    throw std::invalid_argument("fused_softmax_demand: CSR arrays inconsistent");
  }

  const std::size_t n_edges = inc.fwd_offsets->size() - 1;
  const std::size_t n_pgroups = path_offsets.size() - 1;
  const std::size_t n_tgroups = tree_offsets.size() - 1;

  FusedSelectionDemand out;
  // p/q use the zeroing make_node (leading offset gaps stay zero);
  // eff/demand are fully written by stages 2-3.
  out.p = tape.make_node(np);
  out.q = tape.make_node(nt);
  out.eff = tape.make_node_uninit(np);
  out.demand = tape.make_node_uninit(n_edges);

  {
    // Raw pointers taken after every make_node (the arena is stable for the
    // rest of this call). One fused job: softmaxes | eff | demand.
    const float* xp = tape.value(path_logits).data();
    const float* xq = tape.value(tree_logits).data();
    const float* nzp = path_noise != nullptr ? path_noise->data() : nullptr;
    const float* nzq = tree_noise != nullptr ? tree_noise->data() : nullptr;
    float* pv = tape.mutable_value(out.p).data();
    float* qv = tape.mutable_value(out.q).data();
    float* effv = tape.mutable_value(out.eff).data();
    float* dv = tape.mutable_value(out.demand).data();
    const std::uint32_t* off = inc.fwd_offsets->data();
    const std::int32_t* cols = inc.fwd_cols->data();
    const float* w = inc.fwd_weights->data();
    const std::int32_t* poff = path_offsets.data();
    const std::int32_t* toff = tree_offsets.data();
    const std::int32_t* pt = path_tree.data();

    util::ParallelRuntime::fused(
        // Stage 1: both softmaxes share one index space [0, |S|+|N|) — they
        // are independent, so no barrier is needed between them. Each chunk
        // splits at the path/tree boundary once, keeping the loops tight.
        util::stage_blocked(
            0, n_pgroups + n_tgroups, 256, [=](std::size_t lo, std::size_t hi) {
              const std::size_t pe = hi < n_pgroups ? hi : n_pgroups;
              if (lo < pe) softmax_groups(xp, nzp, pv, poff, lo, pe, temperature);
              const std::size_t tlo = lo > n_pgroups ? lo : n_pgroups;
              if (tlo < hi) {
                softmax_groups(xq, nzq, qv, toff, tlo - n_pgroups, hi - n_pgroups,
                               temperature);
              }
            }),
        // Stage 2: eff_i = q[path_tree[i]] * p_i.
        util::stage_blocked(0, np, kParGrain, [=](std::size_t lo, std::size_t hi) {
          gather_mul_range(qv, pt, pv, effv, lo, hi);
        }),
        // Stage 3: expected demand per edge (edge-major CSR rows).
        util::stage_blocked(0, n_edges, 512, [=](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            double acc = 0.0;
            for (std::uint32_t k = off[r]; k < off[r + 1]; ++k) {
              acc += static_cast<double>(w[k]) * effv[static_cast<std::size_t>(cols[k])];
            }
            dv[r] = static_cast<float>(acc);
          }
        }));
  }

  OpRecord rec;
  rec.kind = OpKind::kFusedSoftmaxDemand;
  rec.scalar = temperature;
  auto& fs = rec.u.fused_sel;
  fs.path_logits = path_logits.idx;
  fs.tree_logits = tree_logits.idx;
  fs.p = out.p.idx;
  fs.q = out.q.idx;
  fs.eff = out.eff.idx;
  fs.demand = out.demand.idx;
  fs.path_offsets = path_offsets.data();
  fs.tree_offsets = tree_offsets.data();
  fs.path_tree = path_tree.data();
  fs.tree_path_offsets = tree_path_offsets.data();
  fs.bwd_offsets = inc.bwd_offsets->data();
  fs.bwd_cols = inc.bwd_cols->data();
  fs.bwd_weights = inc.bwd_weights->data();
  fs.np = static_cast<std::uint32_t>(np);
  fs.nt = static_cast<std::uint32_t>(nt);
  fs.n_pgroups = static_cast<std::uint32_t>(n_pgroups);
  fs.n_tgroups = static_cast<std::uint32_t>(n_tgroups);
  tape.push_record(rec);
  return out;
}

NodeId fused_overflow_cost(Tape& tape, NodeId x, const std::vector<float>& c,
                           Activation act, float alpha, std::size_t block) {
  DGR_TRACE_SCOPE("ad.fused_overflow_cost");
  const std::size_t n = tape.size(x);
  if (c.size() != n) throw std::invalid_argument("fused_overflow_cost: size mismatch");
  if (block == 0) block = 1;

  // The activated values f(x - c) are kept in the tape's float pool for the
  // backward replay (sigmoid/exp derivatives reuse the forward output,
  // saving a transcendental per element).
  const std::uint32_t scratch_off = tape.alloc_scratch_floats(n);
  NodeId out = tape.make_node_uninit(1);
  {
    const float* xv = tape.value(x).data();
    const float* cv = c.data();
    float* av = tape.pool_floats(scratch_off);
    // Fixed block decomposition -> owned partial slots -> ordered combine:
    // bitwise identical for any worker count. The partials buffer is
    // thread_local so the steady-state train loop stays allocation-free.
    const std::size_t blocks = (n + block - 1) / block;
    static thread_local std::vector<double> partials;
    partials.assign(blocks, 0.0);
    double* parts = partials.data();
    util::ParallelRuntime::for_blocked(
        0, blocks,
        [=](std::size_t blo, std::size_t bhi) {
          for (std::size_t b = blo; b < bhi; ++b) {
            const std::size_t lo = b * block;
            const std::size_t hi = std::min(n, lo + block);
            double acc = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
              const float a = act_forward(act, alpha, xv[i] - cv[i]);
              av[i] = a;
              acc += static_cast<double>(a);
            }
            parts[b] = acc;
          }
        },
        /*grain=*/1);
    double total = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) total += parts[b];
    tape.mutable_value(out)[0] = static_cast<float>(total);
  }

  // `c` is borrowed by the record (lifetime contract: must outlive the tape).
  OpRecord rec;
  rec.kind = OpKind::kFusedOverflow;
  rec.act = static_cast<std::uint8_t>(act);
  rec.scalar = alpha;
  rec.u.fused_over = {x.idx, out.idx, c.data(), static_cast<std::uint32_t>(n), scratch_off};
  tape.push_record(rec);
  return out;
}

NodeId combine(Tape& tape, const std::vector<NodeId>& scalars,
               const std::vector<float>& coefs) {
  if (scalars.size() != coefs.size() || scalars.empty()) {
    throw std::invalid_argument("combine: size mismatch");
  }
  // Stash the input ids and coefficients in the tape pools so the record
  // stays POD (thread_local staging keeps this allocation-free when warm).
  static thread_local std::vector<std::int32_t> ids;
  ids.clear();
  for (const NodeId s : scalars) ids.push_back(s.idx);
  const std::uint32_t ids_off = tape.own_ints(ids.data(), ids.size());
  const std::uint32_t coef_off = tape.own_floats(coefs.data(), coefs.size());

  NodeId out = tape.make_node_uninit(1);
  {
    double acc = 0.0;
    for (std::size_t k = 0; k < scalars.size(); ++k) {
      if (tape.size(scalars[k]) != 1) throw std::invalid_argument("combine: non-scalar input");
      acc += static_cast<double>(coefs[k]) * tape.value(scalars[k])[0];
    }
    tape.mutable_value(out)[0] = static_cast<float>(acc);
  }
  OpRecord rec;
  rec.kind = OpKind::kCombine;
  rec.u.combine = {out.idx, ids_off, coef_off, static_cast<std::uint32_t>(scalars.size())};
  tape.push_record(rec);
  return out;
}

}  // namespace dgr::ad
