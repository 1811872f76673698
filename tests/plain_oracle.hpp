#pragma once
// Plain scalar loops that recompute DGR's forward pass (Fig. 4, Eqs. 7-12)
// in double precision straight from the inputs: the group softmaxes p and q,
// the coupling eff_i = q[tree(i)] * p_i, the expected-demand scatter and the
// overflow sum Σ_e f(d_e - cap_e). They share no kernel with src/ad, so the
// fused ops are checked against an independent reference. Forward values
// only: gradients are checked against finite differences.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ad/ops.hpp"

namespace dgr::oracle {

/// Relative tolerance of a fused forward value against these loops: the
/// kernels' float rounding.
constexpr double kRtol = 1e-6;

/// softmax((x_i + noise_i) / t) within each group [offsets[g], offsets[g+1]).
inline std::vector<double> group_softmax(const std::vector<float>& x,
                                         const std::vector<std::int32_t>& offsets,
                                         double t, const std::vector<float>* noise) {
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    const auto lo = static_cast<std::size_t>(offsets[g]);
    const auto hi = static_cast<std::size_t>(offsets[g + 1]);
    double mx = -std::numeric_limits<double>::infinity();
    for (std::size_t i = lo; i < hi; ++i) {
      y[i] = (static_cast<double>(x[i]) + (noise != nullptr ? (*noise)[i] : 0.0f)) / t;
      mx = std::max(mx, y[i]);
    }
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += y[i] = std::exp(y[i] - mx);
    for (std::size_t i = lo; i < hi; ++i) y[i] /= sum;
  }
  return y;
}

struct Selection {
  std::vector<double> p, q, eff, demand;
};

/// p and q, eff_i = q[path_tree[i]] * p_i, and the per-edge demand scattered
/// path by path through the path-major (transpose) rows of `inc`, where the
/// fused kernel gathers edge by edge through the forward rows.
inline Selection selection_demand(const std::vector<float>& xp, const std::vector<float>& xq,
                                  const std::vector<std::int32_t>& path_offsets,
                                  const std::vector<std::int32_t>& tree_offsets,
                                  const std::vector<std::int32_t>& path_tree,
                                  const ad::SparseIncidence& inc, double t,
                                  const std::vector<float>* path_noise = nullptr,
                                  const std::vector<float>* tree_noise = nullptr) {
  Selection s;
  s.p = group_softmax(xp, path_offsets, t, path_noise);
  s.q = group_softmax(xq, tree_offsets, t, tree_noise);
  s.demand.assign(inc.fwd_offsets->size() - 1, 0.0);
  for (std::size_t i = 0; i < s.p.size(); ++i) {
    s.eff.push_back(s.q[static_cast<std::size_t>(path_tree[i])] * s.p[i]);
    for (auto k = (*inc.bwd_offsets)[i]; k < (*inc.bwd_offsets)[i + 1]; ++k) {
      s.demand[static_cast<std::size_t>((*inc.bwd_cols)[k])] +=
          static_cast<double>((*inc.bwd_weights)[k]) * s.eff[i];
    }
  }
  return s;
}

/// f(v) as ad::fused_overflow_cost defines it: LeakyReLU slope alpha * 0.01,
/// CELU parameter alpha, exp arguments clamped at 30.
inline double activation(ad::Activation act, double alpha, double v) {
  switch (act) {
    case ad::Activation::kReLU:
      return std::max(v, 0.0);
    case ad::Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-v));
    case ad::Activation::kLeakyReLU:
      return v > 0.0 ? v : 0.01 * alpha * v;
    case ad::Activation::kExp:
      return std::exp(std::min(v, 30.0));
    case ad::Activation::kCELU:
      return v > 0.0 ? v : alpha * (std::exp(v / alpha) - 1.0);
  }
  return 0.0;
}

/// Σ_e f(d_e - cap_e).
inline double overflow_cost(const std::vector<double>& demand, const std::vector<float>& cap,
                            ad::Activation act, double alpha) {
  double sum = 0.0;
  for (std::size_t e = 0; e < demand.size(); ++e) {
    sum += activation(act, alpha, demand[e] - cap[e]);
  }
  return sum;
}

/// Σ_i w_i * x_i.
inline double dot(const std::vector<double>& x, const std::vector<float>& w) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * w[i];
  return sum;
}

}  // namespace dgr::oracle
