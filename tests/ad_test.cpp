#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "ad/adam.hpp"
#include "ad/gradcheck.hpp"
#include "ad/ops.hpp"
#include "ad/simd.hpp"
#include "ad/tape.hpp"
#include "core/relaxation.hpp"
#include "design/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dgr::ad {
namespace {

std::vector<float> random_vec(util::Rng& rng, std::size_t n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

// ---------------------------------------------------------------------------
// Tape basics
// ---------------------------------------------------------------------------

TEST(Tape, InputHoldsValues) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(tape.size(x), 3u);
  EXPECT_FLOAT_EQ(tape.value(x)[1], 2.0f);
}

TEST(Tape, BackwardRequiresScalarRoot) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f});
  EXPECT_THROW(tape.backward(x), std::invalid_argument);
}

TEST(Tape, InvalidNodeIdThrows) {
  Tape tape;
  EXPECT_THROW(tape.value(NodeId{}), std::out_of_range);
  EXPECT_THROW(tape.value(NodeId{5}), std::out_of_range);
}

TEST(Tape, MemoryBytesGrowsWithNodes) {
  Tape tape;
  const std::size_t before = tape.memory_bytes();
  tape.input(std::vector<float>(1000, 1.0f));
  EXPECT_GT(tape.memory_bytes(), before);
}

// ---------------------------------------------------------------------------
// segment_softmax
// ---------------------------------------------------------------------------

TEST(SegmentSoftmax, GroupsSumToOne) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f, 3.0f, -1.0f, 0.5f});
  const std::vector<std::int32_t> offsets{0, 3, 5};
  const NodeId y = segment_softmax(tape, x, offsets, 1.0f);
  const auto& v = tape.value(y);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-6);
  EXPECT_NEAR(v[3] + v[4], 1.0, 1e-6);
  for (const float p : v) {
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(SegmentSoftmax, MatchesClosedForm) {
  Tape tape;
  const NodeId x = tape.input({0.0f, std::log(3.0f)});
  const std::vector<std::int32_t> offsets{0, 2};
  const NodeId y = segment_softmax(tape, x, offsets, 1.0f);
  EXPECT_NEAR(tape.value(y)[0], 0.25, 1e-6);
  EXPECT_NEAR(tape.value(y)[1], 0.75, 1e-6);
}

TEST(SegmentSoftmax, LowTemperatureSharpens) {
  const std::vector<float> logits{1.0f, 1.5f, 0.2f};
  const std::vector<std::int32_t> offsets{0, 3};
  Tape t1, t2;
  const auto y1 = segment_softmax(t1, t1.input(logits), offsets, 1.0f);
  const auto y2 = segment_softmax(t2, t2.input(logits), offsets, 0.1f);
  EXPECT_GT(t2.value(y2)[1], t1.value(y1)[1]);
  EXPECT_GT(t2.value(y2)[1], 0.98f);
}

TEST(SegmentSoftmax, NoiseShiftsDistribution) {
  const std::vector<float> logits{0.0f, 0.0f};
  const std::vector<std::int32_t> offsets{0, 2};
  const std::vector<float> noise{5.0f, 0.0f};
  Tape tape;
  const auto y = segment_softmax(tape, tape.input(logits), offsets, 1.0f, &noise);
  EXPECT_GT(tape.value(y)[0], 0.9f);
}

TEST(SegmentSoftmax, StableUnderLargeLogits) {
  Tape tape;
  const NodeId x = tape.input({1000.0f, 1001.0f});
  const std::vector<std::int32_t> offsets{0, 2};
  const NodeId y = segment_softmax(tape, x, offsets, 1.0f);
  EXPECT_NEAR(tape.value(y)[0] + tape.value(y)[1], 1.0, 1e-6);
  EXPECT_FALSE(std::isnan(tape.value(y)[0]));
}

TEST(SegmentSoftmax, RejectsBadArguments) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f});
  const std::vector<std::int32_t> wrong{0, 3};
  EXPECT_THROW(segment_softmax(tape, x, wrong, 1.0f), std::invalid_argument);
  const std::vector<std::int32_t> ok{0, 2};
  EXPECT_THROW(segment_softmax(tape, x, ok, 0.0f), std::invalid_argument);
}

TEST(SegmentSoftmax, GradCheck) {
  util::Rng rng(3);
  const std::vector<float> x0 = random_vec(rng, 7);
  const std::vector<std::int32_t> offsets{0, 3, 4, 7};
  const std::vector<float> weights{0.3f, -1.0f, 2.0f, 0.7f, 1.1f, -0.2f, 0.5f};
  auto f = [&](const std::vector<float>& x) {
    Tape tape;
    const NodeId y = segment_softmax(tape, tape.input(x), offsets, 0.7f);
    return static_cast<double>(tape.value(weighted_sum(tape, y, weights))[0]);
  };
  Tape tape;
  const NodeId x = tape.input(x0);
  const NodeId y = segment_softmax(tape, x, offsets, 0.7f);
  tape.backward(weighted_sum(tape, y, weights));
  const auto r = grad_check(f, x0, tape.grad(x));
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err << " at " << r.worst_index;
}

// ---------------------------------------------------------------------------
// gather_mul
// ---------------------------------------------------------------------------

TEST(GatherMul, ForwardMatchesDefinition) {
  Tape tape;
  const NodeId q = tape.input({2.0f, 3.0f});
  const NodeId p = tape.input({1.0f, 0.5f, 4.0f});
  const std::vector<std::int32_t> index{0, 1, 1};
  const NodeId y = gather_mul(tape, q, index, p);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 2.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[1], 1.5f);
  EXPECT_FLOAT_EQ(tape.value(y)[2], 12.0f);
}

TEST(GatherMul, GradCheckBothInputs) {
  util::Rng rng(5);
  const std::vector<float> q0 = random_vec(rng, 3);
  const std::vector<float> p0 = random_vec(rng, 6);
  const std::vector<std::int32_t> index{0, 0, 1, 2, 2, 1};
  const std::vector<float> w{1.0f, -2.0f, 0.5f, 3.0f, 1.5f, -1.0f};

  auto run = [&](const std::vector<float>& q, const std::vector<float>& p, Tape& tape,
                 NodeId* qn, NodeId* pn) {
    *qn = tape.input(q);
    *pn = tape.input(p);
    return weighted_sum(tape, gather_mul(tape, *qn, index, *pn), w);
  };
  Tape tape;
  NodeId qn, pn;
  tape.backward(run(q0, p0, tape, &qn, &pn));

  auto fq = [&](const std::vector<float>& q) {
    Tape t;
    NodeId a, b;
    return static_cast<double>(t.value(run(q, p0, t, &a, &b))[0]);
  };
  auto fp = [&](const std::vector<float>& p) {
    Tape t;
    NodeId a, b;
    return static_cast<double>(t.value(run(q0, p, t, &a, &b))[0]);
  };
  EXPECT_TRUE(grad_check(fq, q0, tape.grad(qn)).ok);
  EXPECT_TRUE(grad_check(fp, p0, tape.grad(pn)).ok);
}

// ---------------------------------------------------------------------------
// spmv
// ---------------------------------------------------------------------------

struct TinyCsr {
  std::vector<std::uint32_t> fwd_off{0, 2, 3, 5};
  std::vector<std::int32_t> fwd_cols{0, 1, 1, 0, 2};
  std::vector<float> fwd_w{1.0f, 2.0f, 0.5f, 1.5f, 1.0f};
  // transpose: x0 -> rows {0 (w1), 2 (w1.5)}, x1 -> {0 (w2), 1 (w0.5)},
  //            x2 -> {2 (w1)}
  std::vector<std::uint32_t> bwd_off{0, 2, 4, 5};
  std::vector<std::int32_t> bwd_cols{0, 2, 0, 1, 2};
  std::vector<float> bwd_w{1.0f, 1.5f, 2.0f, 0.5f, 1.0f};

  SparseIncidence inc() const {
    return SparseIncidence{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  }
};

TEST(Spmv, ForwardMatchesDenseProduct) {
  TinyCsr csr;
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f, 3.0f});
  const NodeId y = spmv(tape, x, csr.inc());
  ASSERT_EQ(tape.size(y), 3u);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 1.0f * 1 + 2.0f * 2);
  EXPECT_FLOAT_EQ(tape.value(y)[1], 0.5f * 2);
  EXPECT_FLOAT_EQ(tape.value(y)[2], 1.5f * 1 + 1.0f * 3);
}

TEST(Spmv, GradCheck) {
  TinyCsr csr;
  const std::vector<float> x0{0.3f, -1.2f, 2.2f};
  const std::vector<float> w{1.0f, -0.5f, 2.0f};
  auto f = [&](const std::vector<float>& x) {
    Tape t;
    return static_cast<double>(t.value(weighted_sum(t, spmv(t, t.input(x), csr.inc()), w))[0]);
  };
  Tape tape;
  const NodeId x = tape.input(x0);
  tape.backward(weighted_sum(tape, spmv(tape, x, csr.inc()), w));
  EXPECT_TRUE(grad_check(f, x0, tape.grad(x)).ok);
}

TEST(Spmv, RejectsInconsistentCsr) {
  TinyCsr csr;
  csr.bwd_off = {0, 1};  // claims x has size 1
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f, 3.0f});
  EXPECT_THROW(spmv(tape, x, csr.inc()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// sub_const + activations
// ---------------------------------------------------------------------------

TEST(SubConst, Forward) {
  Tape tape;
  const NodeId x = tape.input({3.0f, 1.0f});
  const NodeId y = sub_const(tape, x, {1.0f, 5.0f});
  EXPECT_FLOAT_EQ(tape.value(y)[0], 2.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[1], -4.0f);
}

TEST(Activations, ForwardValues) {
  Tape tape;
  const NodeId x = tape.input({-2.0f, 0.0f, 3.0f});
  const auto relu = apply_activation(tape, x, Activation::kReLU);
  EXPECT_FLOAT_EQ(tape.value(relu)[0], 0.0f);
  EXPECT_FLOAT_EQ(tape.value(relu)[2], 3.0f);
  const auto sig = apply_activation(tape, x, Activation::kSigmoid);
  EXPECT_NEAR(tape.value(sig)[1], 0.5, 1e-6);
  EXPECT_NEAR(tape.value(sig)[0], 1.0 / (1.0 + std::exp(2.0)), 1e-6);
  const auto leaky = apply_activation(tape, x, Activation::kLeakyReLU, 1.0f);
  EXPECT_NEAR(tape.value(leaky)[0], -0.02, 1e-6);
  const auto ex = apply_activation(tape, x, Activation::kExp);
  EXPECT_NEAR(tape.value(ex)[2], std::exp(3.0), 1e-3);
  const auto celu = apply_activation(tape, x, Activation::kCELU, 1.0f);
  EXPECT_NEAR(tape.value(celu)[0], std::exp(-2.0) - 1.0, 1e-6);
  EXPECT_FLOAT_EQ(tape.value(celu)[2], 3.0f);
}

TEST(Activations, ExpClampPreventsOverflow) {
  Tape tape;
  const NodeId x = tape.input({100.0f});
  const auto y = apply_activation(tape, x, Activation::kExp);
  EXPECT_TRUE(std::isfinite(tape.value(y)[0]));
}

class ActivationGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradCheck, MatchesFiniteDifferences) {
  // Avoid the ReLU/LeakyReLU kink at 0 by sampling away from it; keep
  // magnitudes modest so float32 forward noise stays below the FD step.
  const std::vector<float> x0{-2.3f, -0.7f, 0.9f, 1.6f, 2.2f};
  const std::vector<float> w{1.0f, -1.0f, 2.0f, 0.5f, 1.5f};
  const Activation act = GetParam();
  auto f = [&](const std::vector<float>& x) {
    Tape t;
    return static_cast<double>(
        t.value(weighted_sum(t, apply_activation(t, t.input(x), act, 1.0f), w))[0]);
  };
  Tape tape;
  const NodeId x = tape.input(x0);
  tape.backward(weighted_sum(tape, apply_activation(tape, x, act, 1.0f), w));
  const auto r = grad_check(f, x0, tape.grad(x), 1e-2, 5e-3, 2e-2);
  EXPECT_TRUE(r.ok) << activation_name(act) << " max_abs_err=" << r.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGradCheck,
                         ::testing::Values(Activation::kReLU, Activation::kSigmoid,
                                           Activation::kLeakyReLU, Activation::kExp,
                                           Activation::kCELU));

// ---------------------------------------------------------------------------
// weighted_sum / combine
// ---------------------------------------------------------------------------

TEST(WeightedSum, PlainSumWithEmptyWeights) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f, 3.5f});
  EXPECT_FLOAT_EQ(tape.value(weighted_sum(tape, x))[0], 6.5f);
}

TEST(WeightedSum, AcceptsTemporaryWeights) {
  // Regression guard: the weight vector must be copied into the closure.
  Tape tape;
  const NodeId x = tape.input({2.0f, 4.0f});
  NodeId y;
  {
    std::vector<float> w{1.0f, 0.25f};
    y = weighted_sum(tape, x, w);
    w.assign(2, 999.0f);  // mutate after the call
  }
  tape.backward(y);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 3.0f);
  EXPECT_DOUBLE_EQ(tape.grad(x)[0], 1.0);
  EXPECT_DOUBLE_EQ(tape.grad(x)[1], 0.25);
}

TEST(Combine, LinearCombinationOfScalars) {
  Tape tape;
  const NodeId a = tape.input({2.0f});
  const NodeId b = tape.input({3.0f});
  const NodeId y = combine(tape, {a, b}, {10.0f, 0.5f});
  EXPECT_FLOAT_EQ(tape.value(y)[0], 21.5f);
  tape.backward(y);
  EXPECT_DOUBLE_EQ(tape.grad(a)[0], 10.0);
  EXPECT_DOUBLE_EQ(tape.grad(b)[0], 0.5);
}

TEST(Combine, RejectsNonScalar) {
  Tape tape;
  const NodeId a = tape.input({2.0f, 1.0f});
  EXPECT_THROW(combine(tape, {a}, {1.0f}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Composite graph: the full DGR-shaped forward
// ---------------------------------------------------------------------------

TEST(CompositeGraph, DgrShapedGradCheck) {
  // softmax groups -> gather_mul -> spmv -> sub_const -> sigmoid -> sums.
  util::Rng rng(11);
  const std::vector<std::int32_t> p_groups{0, 2, 4, 6};
  const std::vector<std::int32_t> q_groups{0, 2, 3};
  const std::vector<std::int32_t> path_tree{0, 0, 1, 1, 2, 2};
  // A 4-edge incidence over 6 paths:
  //   edge0 <- {x0 (1), x2 (1)}, edge1 <- {x1 (1), x3 (1.5)},
  //   edge2 <- {x4 (1)},         edge3 <- {x5 (1), x0 (0.5)}.
  std::vector<std::uint32_t> fwd_off{0, 2, 4, 5, 7};
  std::vector<std::int32_t> fwd_cols{0, 2, 1, 3, 4, 5, 0};
  std::vector<float> fwd_w{1.0f, 1.0f, 1.0f, 1.5f, 1.0f, 1.0f, 0.5f};
  std::vector<std::uint32_t> bwd_off{0, 2, 3, 4, 5, 6, 7};
  std::vector<std::int32_t> bwd_cols{0, 3, 1, 0, 1, 2, 3};
  std::vector<float> bwd_w{1.0f, 0.5f, 1.0f, 1.0f, 1.5f, 1.0f, 1.0f};
  const SparseIncidence inc{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  const std::vector<float> cap{1.0f, 0.5f, 2.0f, 1.0f};
  const std::vector<float> wl{3.0f, 4.0f, 2.0f, 2.0f, 5.0f, 6.0f};

  auto forward = [&](const std::vector<float>& params, Tape& tape, NodeId* pn, NodeId* qn) {
    const std::vector<float> pw(params.begin(), params.begin() + 6);
    const std::vector<float> qw(params.begin() + 6, params.end());
    *pn = tape.input(pw);
    *qn = tape.input(qw);
    const NodeId p = segment_softmax(tape, *pn, p_groups, 0.8f);
    const NodeId q = segment_softmax(tape, *qn, q_groups, 0.8f);
    const NodeId eff = gather_mul(tape, q, path_tree, p);
    const NodeId d = spmv(tape, eff, inc);
    const NodeId slack = sub_const(tape, d, cap);
    const NodeId over = apply_activation(tape, slack, Activation::kSigmoid);
    const NodeId o = weighted_sum(tape, over);
    const NodeId w = weighted_sum(tape, eff, wl);
    return combine(tape, {o, w}, {500.0f, 0.5f});
  };

  std::vector<float> params = random_vec(rng, 9, 0.5f);
  Tape tape;
  NodeId pn, qn;
  tape.backward(forward(params, tape, &pn, &qn));
  std::vector<double> grad(9);
  std::copy(tape.grad(pn).begin(), tape.grad(pn).end(), grad.begin());
  std::copy(tape.grad(qn).begin(), tape.grad(qn).end(), grad.begin() + 6);

  auto f = [&](const std::vector<float>& x) {
    Tape t;
    NodeId a, b;
    return static_cast<double>(t.value(forward(x, t, &a, &b))[0]);
  };
  // Larger FD step: the forward runs in float32 and the 500x overflow weight
  // amplifies rounding noise.
  const auto r = grad_check(f, params, grad, 1e-2, 2e-2, 3e-2);
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err << " rel=" << r.max_rel_err;
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

TEST(Adam, MinimisesQuadratic) {
  // f(x) = sum (x - target)^2, gradient 2(x - target).
  const std::vector<double> target{3.0, -1.0, 0.5};
  std::vector<float> x{0.0f, 0.0f, 0.0f};
  Adam adam(3, {0.1, 0.9, 0.999, 1e-8});
  for (int it = 0; it < 500; ++it) {
    std::vector<double> g(3);
    for (std::size_t i = 0; i < 3; ++i) g[i] = 2.0 * (x[i] - target[i]);
    adam.step(x, g);
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], target[i], 1e-2);
  EXPECT_EQ(adam.iteration(), 500);
}

TEST(Adam, StepSizeBoundedByLearningRate) {
  std::vector<float> x{0.0f};
  Adam adam(1, {0.3, 0.9, 0.999, 1e-8});
  adam.step(x, {1000.0});
  // Adam's first step magnitude is ~lr regardless of gradient scale.
  EXPECT_NEAR(std::abs(x[0]), 0.3, 0.05);
}

TEST(Adam, RejectsSizeMismatch) {
  std::vector<float> x{0.0f, 1.0f};
  Adam adam(2);
  std::vector<double> g{1.0};
  EXPECT_THROW(adam.step(x, g), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// grad_check self-test
// ---------------------------------------------------------------------------

TEST(GradCheck, AcceptsCorrectAndRejectsWrongGradients) {
  auto f = [](const std::vector<float>& x) {
    return static_cast<double>(x[0]) * x[0] + 3.0 * x[1];
  };
  const std::vector<float> x0{2.0f, 1.0f};
  const std::vector<double> good{4.0, 3.0};
  const std::vector<double> bad{4.5, 3.0};
  EXPECT_TRUE(grad_check(f, x0, good).ok);
  EXPECT_FALSE(grad_check(f, x0, bad).ok);
}


TEST(SegmentSoftmax, EmptyGroupIsSkipped) {
  Tape tape;
  const NodeId x = tape.input({1.0f, 2.0f});
  // Middle group [1,1) is empty; forward and backward must not touch it.
  const std::vector<std::int32_t> offsets{0, 1, 1, 2};
  const NodeId y = segment_softmax(tape, x, offsets, 1.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 1.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[1], 1.0f);
  tape.backward(weighted_sum(tape, y));
  EXPECT_DOUBLE_EQ(tape.grad(x)[0], 0.0);  // softmax of singleton: flat
}

// ---------------------------------------------------------------------------
// Fused kernels: fused_softmax_demand + fused_overflow_cost
// ---------------------------------------------------------------------------

/// 6 paths in 3 subnet groups, 3 trees in 2 net groups, 4 edges — the same
/// incidence as the CompositeGraph test, plus the tree-major path ranges the
/// fused backward needs.
struct FusedFixture {
  std::vector<std::int32_t> p_groups{0, 2, 4, 6};
  std::vector<std::int32_t> q_groups{0, 2, 3};
  std::vector<std::int32_t> path_tree{0, 0, 1, 1, 2, 2};
  std::vector<std::int32_t> tree_paths{0, 2, 4, 6};
  std::vector<std::uint32_t> fwd_off{0, 2, 4, 5, 7};
  std::vector<std::int32_t> fwd_cols{0, 2, 1, 3, 4, 5, 0};
  std::vector<float> fwd_w{1.0f, 1.0f, 1.0f, 1.5f, 1.0f, 1.0f, 0.5f};
  std::vector<std::uint32_t> bwd_off{0, 2, 3, 4, 5, 6, 7};
  std::vector<std::int32_t> bwd_cols{0, 3, 1, 0, 1, 2, 3};
  std::vector<float> bwd_w{1.0f, 0.5f, 1.0f, 1.0f, 1.5f, 1.0f, 1.0f};
  std::vector<float> wl{0.3f, 0.4f, 0.2f, 0.2f, 0.5f, 0.6f};
  std::vector<float> wd{1.0f, -0.5f, 2.0f, 0.8f};

  SparseIncidence inc() const {
    return SparseIncidence{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  }

  /// Objective over the fused chain: Σ wd·demand + Σ wl·eff.
  NodeId fused_objective(Tape& tape, const std::vector<float>& xp,
                         const std::vector<float>& xq, float temperature,
                         const std::vector<float>* noise_p = nullptr,
                         const std::vector<float>* noise_q = nullptr,
                         FusedSelectionDemand* nodes = nullptr, NodeId* pl = nullptr,
                         NodeId* tl = nullptr) const {
    const NodeId a = tape.input(xp);
    const NodeId b = tape.input(xq);
    if (pl != nullptr) *pl = a;
    if (tl != nullptr) *tl = b;
    const FusedSelectionDemand sel =
        fused_softmax_demand(tape, a, b, p_groups, q_groups, path_tree, tree_paths,
                             inc(), temperature, noise_p, noise_q);
    if (nodes != nullptr) *nodes = sel;
    return combine(tape, {weighted_sum(tape, sel.demand, wd), weighted_sum(tape, sel.eff, wl)},
                   {1.0f, 1.0f});
  }
};

TEST(FusedSoftmaxDemand, MatchesUnfusedComposition) {
  FusedFixture fx;
  util::Rng rng(17);
  const std::vector<float> xp = random_vec(rng, 6);
  const std::vector<float> xq = random_vec(rng, 3);
  const std::vector<float> noise_p = random_vec(rng, 6, 0.3f);
  const std::vector<float> noise_q = random_vec(rng, 3, 0.3f);

  Tape fused_tape;
  FusedSelectionDemand sel;
  NodeId fpl, ftl;
  const NodeId fused_cost = fx.fused_objective(fused_tape, xp, xq, 0.8f, &noise_p,
                                               &noise_q, &sel, &fpl, &ftl);
  fused_tape.backward(fused_cost);

  Tape ref;
  const NodeId pl = ref.input(xp);
  const NodeId tl = ref.input(xq);
  const NodeId p = segment_softmax(ref, pl, fx.p_groups, 0.8f, &noise_p);
  const NodeId q = segment_softmax(ref, tl, fx.q_groups, 0.8f, &noise_q);
  const NodeId eff = gather_mul(ref, q, fx.path_tree, p);
  const NodeId demand = spmv(ref, eff, fx.inc());
  ref.backward(combine(ref, {weighted_sum(ref, demand, fx.wd), weighted_sum(ref, eff, fx.wl)},
                       {1.0f, 1.0f}));

  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(fused_tape.value(sel.p)[i], ref.value(p)[i]) << i;
    EXPECT_FLOAT_EQ(fused_tape.value(sel.eff)[i], ref.value(eff)[i]) << i;
  }
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_FLOAT_EQ(fused_tape.value(sel.q)[t], ref.value(q)[t]) << t;
  }
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_FLOAT_EQ(fused_tape.value(sel.demand)[e], ref.value(demand)[e]) << e;
  }
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(fused_tape.grad(fpl)[i], ref.grad(pl)[i],
                1e-12 + 1e-9 * std::abs(ref.grad(pl)[i]))
        << i;
  }
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_NEAR(fused_tape.grad(ftl)[t], ref.grad(tl)[t],
                1e-12 + 1e-9 * std::abs(ref.grad(tl)[t]))
        << t;
  }
}

TEST(FusedSoftmaxDemand, GradCheckWithGumbelNoise) {
  FusedFixture fx;
  util::Rng rng(23);
  const std::vector<float> xp = random_vec(rng, 6);
  const std::vector<float> xq = random_vec(rng, 3);
  const std::vector<float> noise_p = random_vec(rng, 6, 0.4f);
  const std::vector<float> noise_q = random_vec(rng, 3, 0.4f);

  auto split = [&](const std::vector<float>& params, std::vector<float>* a,
                   std::vector<float>* b) {
    a->assign(params.begin(), params.begin() + 6);
    b->assign(params.begin() + 6, params.end());
  };
  auto f = [&](const std::vector<float>& params) {
    std::vector<float> a, b;
    split(params, &a, &b);
    Tape t;
    return static_cast<double>(
        t.value(fx.fused_objective(t, a, b, 0.7f, &noise_p, &noise_q))[0]);
  };

  std::vector<float> params(xp);
  params.insert(params.end(), xq.begin(), xq.end());
  Tape tape;
  NodeId pl, tl;
  tape.backward(fx.fused_objective(tape, xp, xq, 0.7f, &noise_p, &noise_q, nullptr,
                                   &pl, &tl));
  std::vector<double> grad(9);
  std::copy(tape.grad(pl).begin(), tape.grad(pl).end(), grad.begin());
  std::copy(tape.grad(tl).begin(), tape.grad(tl).end(), grad.begin() + 6);
  const auto r = grad_check(f, params, grad);
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err << " at " << r.worst_index;
}

class FusedSoftmaxDemandTemperature : public ::testing::TestWithParam<float> {};

TEST_P(FusedSoftmaxDemandTemperature, GradCheckAtExtremeTemperatures) {
  // τ=0.01 drives the softmaxes to saturation (gradients underflow to ~0 and
  // finite differences agree); τ=10 flattens them. Both must gradcheck.
  FusedFixture fx;
  const float tau = GetParam();
  // Well-separated logits so the τ→0 limit is a stable one-hot.
  const std::vector<float> xp{0.9f, -0.4f, 0.1f, 1.2f, -0.8f, 0.5f};
  const std::vector<float> xq{0.6f, -0.7f, 0.2f};
  auto f = [&](const std::vector<float>& params) {
    const std::vector<float> a(params.begin(), params.begin() + 6);
    const std::vector<float> b(params.begin() + 6, params.end());
    Tape t;
    return static_cast<double>(t.value(fx.fused_objective(t, a, b, tau))[0]);
  };
  std::vector<float> params(xp);
  params.insert(params.end(), xq.begin(), xq.end());
  Tape tape;
  NodeId pl, tl;
  tape.backward(fx.fused_objective(tape, xp, xq, tau, nullptr, nullptr, nullptr, &pl, &tl));
  std::vector<double> grad(9);
  std::copy(tape.grad(pl).begin(), tape.grad(pl).end(), grad.begin());
  std::copy(tape.grad(tl).begin(), tape.grad(tl).end(), grad.begin() + 6);
  const auto r = grad_check(f, params, grad);
  EXPECT_TRUE(r.ok) << "tau=" << tau << " max_abs_err=" << r.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Extremes, FusedSoftmaxDemandTemperature,
                         ::testing::Values(0.01f, 10.0f));

TEST(FusedSoftmaxDemand, DegenerateSegmentsGradCheck) {
  // Single-candidate subnet groups (softmax == 1), an empty subnet group,
  // and a tree candidate with zero paths. 3 paths / 3 subnet groups (middle
  // empty), 2 trees (tree 1 empty), 1 net group over both trees, 2 edges.
  const std::vector<std::int32_t> p_groups{0, 1, 1, 3};
  const std::vector<std::int32_t> q_groups{0, 2};
  const std::vector<std::int32_t> path_tree{0, 0, 0};
  const std::vector<std::int32_t> tree_paths{0, 3, 3};
  const std::vector<std::uint32_t> fwd_off{0, 2, 3};
  const std::vector<std::int32_t> fwd_cols{0, 1, 2};
  const std::vector<float> fwd_w{1.0f, 0.5f, 2.0f};
  const std::vector<std::uint32_t> bwd_off{0, 1, 2, 3};
  const std::vector<std::int32_t> bwd_cols{0, 0, 1};
  const std::vector<float> bwd_w{1.0f, 0.5f, 2.0f};
  const SparseIncidence inc{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  const std::vector<float> wd{1.5f, -0.7f};

  auto objective = [&](Tape& t, const std::vector<float>& a, const std::vector<float>& b,
                       NodeId* pl, NodeId* tl) {
    *pl = t.input(a);
    *tl = t.input(b);
    const FusedSelectionDemand sel = fused_softmax_demand(
        t, *pl, *tl, p_groups, q_groups, path_tree, tree_paths, inc, 0.9f);
    return weighted_sum(t, sel.demand, wd);
  };
  const std::vector<float> xp{0.4f, -0.2f, 0.7f};
  const std::vector<float> xq{0.1f, -0.5f};
  auto f = [&](const std::vector<float>& params) {
    const std::vector<float> a(params.begin(), params.begin() + 3);
    const std::vector<float> b(params.begin() + 3, params.end());
    Tape t;
    NodeId pl, tl;
    return static_cast<double>(t.value(objective(t, a, b, &pl, &tl))[0]);
  };
  std::vector<float> params(xp);
  params.insert(params.end(), xq.begin(), xq.end());
  Tape tape;
  NodeId pl, tl;
  tape.backward(objective(tape, xp, xq, &pl, &tl));
  std::vector<double> grad(5);
  std::copy(tape.grad(pl).begin(), tape.grad(pl).end(), grad.begin());
  std::copy(tape.grad(tl).begin(), tape.grad(tl).end(), grad.begin() + 3);
  const auto r = grad_check(f, params, grad);
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err << " at " << r.worst_index;
  // The single-candidate group is a constant 1 under softmax: zero gradient.
  EXPECT_NEAR(tape.grad(pl)[0], 0.0, 1e-12);
}

TEST(FusedSoftmaxDemand, RejectsBadStructure) {
  FusedFixture fx;
  Tape tape;
  const NodeId a = tape.input(std::vector<float>(6, 0.0f));
  const NodeId b = tape.input(std::vector<float>(3, 0.0f));
  EXPECT_THROW(fused_softmax_demand(tape, a, b, fx.p_groups, fx.q_groups, fx.path_tree,
                                    fx.tree_paths, fx.inc(), 0.0f),
               std::invalid_argument);
  std::vector<std::int32_t> bad_tree_paths{0, 2, 4, 5};  // does not cover paths
  EXPECT_THROW(fused_softmax_demand(tape, a, b, fx.p_groups, fx.q_groups, fx.path_tree,
                                    bad_tree_paths, fx.inc(), 1.0f),
               std::invalid_argument);
}

TEST(FusedOverflowCost, MatchesUnfusedChain) {
  util::Rng rng(29);
  const std::vector<float> x0 = random_vec(rng, 11);
  const std::vector<float> cap(11, 0.2f);
  // The unfused chain is always scalar; with the SIMD kernels active the
  // fused side evaluates exp-based activations with the vector polynomial,
  // so the comparison runs at the shared-eval tolerance instead of the
  // near-bitwise scalar one (DESIGN.md §5.4).
  const double grad_rtol = simd::active() ? 1e-6 : 1e-9;
  const double grad_atol = simd::active() ? 1e-9 : 1e-12;
  for (const Activation act : {Activation::kReLU, Activation::kSigmoid,
                               Activation::kLeakyReLU, Activation::kExp,
                               Activation::kCELU}) {
    Tape fused;
    const NodeId fx = fused.input(x0);
    // block=3 exercises the multi-block partial reduction.
    const NodeId fo = fused_overflow_cost(fused, fx, cap, act, 1.0f, /*block=*/3);
    Tape ref;
    const NodeId rx = ref.input(x0);
    const NodeId ro =
        weighted_sum(ref, apply_activation(ref, sub_const(ref, rx, cap), act, 1.0f));
    EXPECT_NEAR(fused.value(fo)[0], ref.value(ro)[0],
                1e-6 + 1e-6 * std::abs(ref.value(ro)[0]))
        << activation_name(act);
    fused.backward(fo);
    ref.backward(ro);
    for (std::size_t i = 0; i < x0.size(); ++i) {
      EXPECT_NEAR(fused.grad(fx)[i], ref.grad(rx)[i],
                  grad_atol + grad_rtol * std::abs(ref.grad(rx)[i]))
          << activation_name(act) << " i=" << i;
    }
  }
}

class FusedOverflowGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(FusedOverflowGradCheck, MatchesFiniteDifferences) {
  // Slacks kept away from the ReLU/LeakyReLU kink at 0 (|x - c| >= 0.25) and
  // small enough that float rounding of the Exp sum stays below the finite-
  // difference tolerance on every coordinate.
  const std::vector<float> x0{-1.1f, -0.7f, 0.3f, 0.55f, 0.8f, -0.9f, 0.45f};
  const std::vector<float> cap{0.05f, 0.05f, 0.05f, 0.05f, 0.05f, 0.05f, 0.05f};
  const Activation act = GetParam();
  auto f = [&](const std::vector<float>& x) {
    Tape t;
    return static_cast<double>(
        t.value(fused_overflow_cost(t, t.input(x), cap, act, 1.0f, /*block=*/3))[0]);
  };
  Tape tape;
  const NodeId x = tape.input(x0);
  tape.backward(fused_overflow_cost(tape, x, cap, act, 1.0f, /*block=*/3));
  const auto r = grad_check(f, x0, tape.grad(x));
  EXPECT_TRUE(r.ok) << activation_name(act) << " max_abs_err=" << r.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(All, FusedOverflowGradCheck,
                         ::testing::Values(Activation::kReLU, Activation::kSigmoid,
                                           Activation::kLeakyReLU, Activation::kExp,
                                           Activation::kCELU));

TEST(FusedOverflowCost, EmptyInputIsZero) {
  Tape tape;
  const std::vector<float> cap;  // must outlive the tape (captured by reference)
  const NodeId x = tape.input(std::vector<float>{});
  const NodeId y = fused_overflow_cost(tape, x, cap, Activation::kSigmoid);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 0.0f);
}

TEST(Spmv, EmptyRowsProduceZero) {
  const std::vector<std::uint32_t> fwd_off{0, 0, 1, 1};
  const std::vector<std::int32_t> fwd_cols{0};
  const std::vector<float> fwd_w{2.0f};
  const std::vector<std::uint32_t> bwd_off{0, 1};
  const std::vector<std::int32_t> bwd_cols{1};
  const std::vector<float> bwd_w{2.0f};
  const SparseIncidence inc{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  Tape tape;
  const NodeId x = tape.input({3.0f});
  const NodeId y = spmv(tape, x, inc);
  EXPECT_FLOAT_EQ(tape.value(y)[0], 0.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[1], 6.0f);
  EXPECT_FLOAT_EQ(tape.value(y)[2], 0.0f);
  tape.backward(weighted_sum(tape, y));
  EXPECT_DOUBLE_EQ(tape.grad(x)[0], 2.0);
}

// ---------------------------------------------------------------------------
// Arena reuse
// ---------------------------------------------------------------------------

TEST(Tape, ResetKeepsCapacityAndReproducesValues) {
  util::Rng rng(99);
  const std::vector<float> x0 = random_vec(rng, 512);
  const std::vector<std::int32_t> offsets{0, 100, 256, 400, 512};

  Tape tape;
  auto record = [&] {
    const NodeId x = tape.input(x0);
    const NodeId p = segment_softmax(tape, x, offsets, 0.7f);
    const NodeId cost = weighted_sum(tape, p);
    tape.backward(cost);
    return std::pair{std::vector<float>(tape.value(p).begin(), tape.value(p).end()),
                     std::vector<double>(tape.grad(x).begin(), tape.grad(x).end())};
  };
  const auto first = record();
  const std::size_t bytes_after_first = tape.memory_bytes();
  for (int round = 0; round < 3; ++round) {
    tape.reset();
    const auto again = record();
    EXPECT_EQ(again.first, first.first) << "round " << round;
    EXPECT_EQ(again.second, first.second) << "round " << round;
    // Re-recording an identical graph must never regrow the arenas.
    EXPECT_EQ(tape.memory_bytes(), bytes_after_first) << "round " << round;
  }

  // The solver's per-iteration graph (Gumbel-noised fused selection-demand
  // plus fused overflow) re-recorded into a reset tape must reproduce the
  // first recording bit for bit, and every worker count must agree. The
  // design is big enough for the kernels' parallel loops to split.
  design::IspdLikeParams params;
  params.num_nets = 400;
  params.grid_w = params.grid_h = 24;
  const design::Design design = design::generate_ispd_like(params, 41);
  const std::vector<float> cap = design.capacities();
  const dag::DagForest forest = dag::DagForest::build(design, {});
  const core::Relaxation r = core::Relaxation::build(forest);
  const std::vector<float> xp = random_vec(rng, r.path_count());
  const std::vector<float> xq = random_vec(rng, r.tree_count());
  std::vector<float> noise_p(xp.size()), noise_q(xq.size());
  for (float& g : noise_p) g = static_cast<float>(rng.gumbel());
  for (float& g : noise_q) g = static_cast<float>(rng.gumbel());

  struct Recording {
    std::vector<float> demand;
    float cost = 0.0f;
    std::vector<double> grad_p, grad_q;
  };
  auto record_fused = [&](Tape& fused_tape) {
    const NodeId pl = fused_tape.input(xp);
    const NodeId tl = fused_tape.input(xq);
    const FusedSelectionDemand sel = fused_softmax_demand(
        fused_tape, pl, tl, r.path_group_offsets, r.tree_group_offsets, r.path_tree,
        r.tree_path_offsets, r.incidence, 0.6f, &noise_p, &noise_q);
    const NodeId cost = fused_overflow_cost(fused_tape, sel.demand, cap,
                                            Activation::kSigmoid, 1.0f, /*block=*/256);
    fused_tape.backward(cost);
    const std::span<const float> demand = fused_tape.value(sel.demand);
    return Recording{{demand.begin(), demand.end()},
                     fused_tape.value(cost)[0],
                     {fused_tape.grad(pl).begin(), fused_tape.grad(pl).end()},
                     {fused_tape.grad(tl).begin(), fused_tape.grad(tl).end()}};
  };
  auto expect_equal = [](const Recording& a, const Recording& b, const std::string& where) {
    EXPECT_EQ(a.demand, b.demand) << where;
    EXPECT_EQ(a.cost, b.cost) << where;
    EXPECT_EQ(a.grad_p, b.grad_p) << where;
    EXPECT_EQ(a.grad_q, b.grad_q) << where;
  };

  Recording reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    util::set_worker_count(workers);
    Tape fused_tape;
    const Recording fused_first = record_fused(fused_tape);
    if (workers == 1) reference = fused_first;
    expect_equal(fused_first, reference, "workers=" + std::to_string(workers));
    for (int round = 0; round < 2; ++round) {
      fused_tape.reset();
      expect_equal(record_fused(fused_tape), fused_first,
                   "workers=" + std::to_string(workers) + " round=" + std::to_string(round));
    }
  }
  util::set_worker_count(0);
}

// ---------------------------------------------------------------------------
// SIMD-vs-scalar equivalence (compiled only under DGR_SIMD; self-skips
// otherwise so the same test source runs in both preset matrix legs)
// ---------------------------------------------------------------------------

class SimdGuard {
 public:
  explicit SimdGuard(bool on) : prev_(simd::enabled()) { simd::set_enabled(on); }
  ~SimdGuard() { simd::set_enabled(prev_); }

 private:
  bool prev_;
};

TEST(Simd, SoftmaxMatchesScalarWithinTolerance) {
  if (!simd::compiled_in()) GTEST_SKIP() << "built without DGR_SIMD";
  util::Rng rng(321);
  const std::vector<float> x0 = random_vec(rng, 4096, 2.0f);
  std::vector<std::int32_t> offsets;
  for (std::int32_t i = 0; i <= 4096; i += 64) offsets.push_back(i);

  auto run = [&](bool simd_on) {
    SimdGuard guard(simd_on);
    Tape tape;
    const NodeId x = tape.input(x0);
    const NodeId p = segment_softmax(tape, x, offsets, 0.8f);
    tape.backward(weighted_sum(tape, p));
    return std::pair{std::vector<float>(tape.value(p).begin(), tape.value(p).end()),
                     std::vector<double>(tape.grad(x).begin(), tape.grad(x).end())};
  };
  const auto scalar = run(false);
  const auto vec = run(true);
  // The vector exp polynomial differs from libm by a few ulp; the contract
  // is tolerance, not bitwise equality (DESIGN.md §5.4).
  for (std::size_t i = 0; i < scalar.first.size(); ++i) {
    EXPECT_NEAR(vec.first[i], scalar.first[i], 1e-6f + 1e-5f * std::abs(scalar.first[i]))
        << i;
  }
  for (std::size_t i = 0; i < scalar.second.size(); ++i) {
    EXPECT_NEAR(vec.second[i], scalar.second[i],
                1e-7 + 1e-5 * std::abs(scalar.second[i]))
        << i;
  }
}

TEST(Simd, FusedOverflowMatchesScalarWithinTolerance) {
  if (!simd::compiled_in()) GTEST_SKIP() << "built without DGR_SIMD";
  util::Rng rng(654);
  const std::vector<float> x0 = random_vec(rng, 2048, 1.5f);
  std::vector<float> cap(2048);
  for (float& c : cap) c = std::abs(static_cast<float>(rng.normal()));

  for (const Activation act : {Activation::kReLU, Activation::kSigmoid,
                               Activation::kLeakyReLU, Activation::kExp,
                               Activation::kCELU}) {
    auto run = [&](bool simd_on) {
      SimdGuard guard(simd_on);
      Tape tape;
      const NodeId x = tape.input(x0);
      const NodeId y = fused_overflow_cost(tape, x, cap, act, 1.0f);
      tape.backward(y);
      return std::pair{tape.value(y)[0],
                       std::vector<double>(tape.grad(x).begin(), tape.grad(x).end())};
    };
    const auto scalar = run(false);
    const auto vec = run(true);
    EXPECT_NEAR(vec.first, scalar.first,
                1e-5f + 1e-5f * std::abs(scalar.first))
        << activation_name(act);
    for (std::size_t i = 0; i < scalar.second.size(); ++i) {
      EXPECT_NEAR(vec.second[i], scalar.second[i],
                  1e-7 + 1e-5 * std::abs(scalar.second[i]))
          << activation_name(act) << " " << i;
    }
  }
}

TEST(Simd, GradCheckPassesWithSimdEnabled) {
  if (!simd::compiled_in()) GTEST_SKIP() << "built without DGR_SIMD";
  SimdGuard guard(true);
  util::Rng rng(111);
  const std::vector<float> x0 = random_vec(rng, 96);
  const std::vector<std::int32_t> offsets{0, 24, 48, 96};
  auto f = [&](const std::vector<float>& x) {
    SimdGuard inner(true);
    Tape tape;
    const NodeId xs = tape.input(x);
    const NodeId p = segment_softmax(tape, xs, offsets, 1.0f);
    return static_cast<double>(tape.value(weighted_sum(tape, p))[0]);
  };
  Tape tape;
  const NodeId x = tape.input(x0);
  tape.backward(weighted_sum(tape, segment_softmax(tape, x, offsets, 1.0f)));
  const auto r = grad_check(f, x0, tape.grad(x), 1e-3, 2e-4, 1e-2);
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err
                    << " max_rel_err=" << r.max_rel_err;
}

// ---------------------------------------------------------------------------
// One-element groups: the invariants behind DgrSolver's inert-logit skip
// ---------------------------------------------------------------------------

/// Temperatures from 1 down to DgrSolver::temperature_at's 1e-6 floor.
constexpr float kSkipTemperatures[] = {1.0f, 0.3f, 1e-2f, 1e-4f, 1e-6f};

/// Scalar mode always; the AVX2 kernels too when built with DGR_SIMD.
std::vector<bool> simd_modes() {
  return simd::compiled_in() ? std::vector<bool>{false, true} : std::vector<bool>{false};
}

/// Finite logits, finite Gumbel noise and arbitrary gradient weights.
struct SkipInputs {
  std::vector<float> x, noise, w_out, w_in;
  explicit SkipInputs(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    x = random_vec(rng, n, 3.0f);
    for (std::size_t i = 0; i < n; ++i) {
      noise.push_back(static_cast<float>(rng.gumbel()));
      w_out.push_back(static_cast<float>(rng.uniform(-2.0, 2.0)));
      w_in.push_back(static_cast<float>(rng.uniform(-2.0, 2.0)));
    }
  }
};

TEST(SegmentSoftmax, SingletonGroupIsOne) {
  // For a finite logit l, a lone candidate's softmax is exp(l - l) / 1 = 1
  // and its backward adds (gy - gy * 1) / t = +0: DgrSolver relies on both
  // to skip the noise, softmax and Adam work of such logits bit for bit.
  // Groups {0} {1,2} {3} {4} {5,6,7} {8}; the direct x term seeds grad(x)
  // so "adds exactly 0" is checked, not just "is 0".
  const std::vector<std::int32_t> offsets{0, 1, 3, 4, 5, 8, 9};
  const std::size_t singles[] = {0, 3, 4, 8};
  const SkipInputs in(9, 41);
  for (const bool simd_on : simd_modes()) {
    SimdGuard guard(simd_on);
    for (const float t : kSkipTemperatures) {
      for (const std::vector<float>* noise : {static_cast<const std::vector<float>*>(nullptr),
                                              &in.noise}) {
        Tape tape;
        const NodeId x = tape.input(in.x);
        const NodeId y = segment_softmax(tape, x, offsets, t, noise);
        tape.backward(combine(
            tape, {weighted_sum(tape, y, in.w_out), weighted_sum(tape, x, in.w_in)},
            {1.0f, 1.0f}));
        for (const std::size_t i : singles) {
          const std::string where = "simd=" + std::to_string(simd_on) +
                                    " t=" + std::to_string(t) +
                                    " noise=" + std::to_string(noise != nullptr) +
                                    " i=" + std::to_string(i);
          const float l = (in.x[i] + (noise != nullptr ? in.noise[i] : 0.0f)) / t;
          ASSERT_TRUE(std::isfinite(l)) << where;
          EXPECT_EQ(std::exp(l - l), 1.0f) << where;
          EXPECT_EQ(tape.value(y)[i], 1.0f) << where;
          EXPECT_EQ(tape.grad(x)[i], static_cast<double>(in.w_in[i])) << where;
        }
        EXPECT_NEAR(tape.value(y)[1] + tape.value(y)[2], 1.0f, 1e-6f);
      }
    }
  }
  if (simd::compiled_in()) {
    // The AVX2 path stages l - l = 0 and relies on the vector exp of 0.
    std::vector<float> zeros(19, 0.0f);
    simd::exp_sweep(zeros.data(), 3, 19);
    for (std::size_t i = 3; i < zeros.size(); ++i) EXPECT_EQ(zeros[i], 1.0f) << i;
  }
}

TEST(FusedSoftmaxDemand, OneElementGroupsAreExactlyOneAndAddZeroGradient) {
  // Paths {0} {1,2} | {3} | {4} {5,6}; trees {0} {1,2}: one-element groups
  // on both sides, next to multi-candidate ones, over a 3-edge incidence.
  const std::vector<std::int32_t> p_groups{0, 1, 3, 4, 5, 7};
  const std::vector<std::int32_t> q_groups{0, 1, 3};
  const std::vector<std::int32_t> path_tree{0, 0, 0, 1, 2, 2, 2};
  const std::vector<std::int32_t> tree_paths{0, 3, 4, 7};
  const std::vector<std::uint32_t> fwd_off{0, 3, 5, 8};
  const std::vector<std::int32_t> fwd_cols{0, 2, 5, 1, 4, 2, 3, 6};
  const std::vector<float> fwd_w{1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 0.5f, 1.0f, 1.0f};
  const std::vector<std::uint32_t> bwd_off{0, 1, 2, 4, 5, 6, 7, 8};
  const std::vector<std::int32_t> bwd_cols{0, 1, 0, 2, 2, 1, 0, 2};
  const std::vector<float> bwd_w{1.0f, 1.0f, 1.0f, 0.5f, 1.0f, 1.0f, 1.0f, 1.0f};
  const SparseIncidence inc{&fwd_off, &fwd_cols, &fwd_w, &bwd_off, &bwd_cols, &bwd_w};
  const std::vector<float> wd{1.5f, -0.7f, 2.5f};
  const std::size_t path_singles[] = {0, 3, 4};
  const std::size_t tree_singles[] = {0};
  const SkipInputs paths(7, 43);
  const SkipInputs trees(3, 47);

  for (const bool simd_on : simd_modes()) {
    SimdGuard guard(simd_on);
    for (const float t : kSkipTemperatures) {
      for (const bool with_noise : {false, true}) {
        Tape tape;
        const NodeId xp = tape.input(paths.x);
        const NodeId xq = tape.input(trees.x);
        const FusedSelectionDemand sel = fused_softmax_demand(
            tape, xp, xq, p_groups, q_groups, path_tree, tree_paths, inc, t,
            with_noise ? &paths.noise : nullptr, with_noise ? &trees.noise : nullptr);
        tape.backward(combine(tape,
                              {weighted_sum(tape, sel.demand, wd),
                               weighted_sum(tape, sel.eff, paths.w_out),
                               weighted_sum(tape, xp, paths.w_in),
                               weighted_sum(tape, xq, trees.w_in)},
                              {1.0f, 1.0f, 1.0f, 1.0f}));
        const std::string where = "simd=" + std::to_string(simd_on) +
                                  " t=" + std::to_string(t) +
                                  " noise=" + std::to_string(with_noise);
        for (const std::size_t i : path_singles) {
          EXPECT_EQ(tape.value(sel.p)[i], 1.0f) << where << " path " << i;
          EXPECT_EQ(tape.grad(xp)[i], static_cast<double>(paths.w_in[i]))
              << where << " path " << i;
        }
        for (const std::size_t i : tree_singles) {
          EXPECT_EQ(tape.value(sel.q)[i], 1.0f) << where << " tree " << i;
          EXPECT_EQ(tape.grad(xq)[i], static_cast<double>(trees.w_in[i]))
              << where << " tree " << i;
        }
      }
    }
  }
}

TEST(FusedSoftmaxDemand, ZeroGroupsIsALegalEmptyOp) {
  // An empty forest: no paths, no trees, demand 0 on every edge.
  const std::vector<std::int32_t> none{0};
  const std::vector<std::int32_t> no_paths;
  const std::vector<std::uint32_t> fwd_off{0, 0, 0};
  const std::vector<std::uint32_t> bwd_off{0};
  const std::vector<std::int32_t> cols;
  const std::vector<float> w;
  const SparseIncidence inc{&fwd_off, &cols, &w, &bwd_off, &cols, &w};
  Tape tape;
  const NodeId xp = tape.input(std::vector<float>{});
  const NodeId xq = tape.input(std::vector<float>{});
  const FusedSelectionDemand sel =
      fused_softmax_demand(tape, xp, xq, none, none, no_paths, none, inc, 1.0f);
  ASSERT_EQ(tape.size(sel.demand), 2u);
  EXPECT_EQ(tape.value(sel.demand)[0], 0.0f);
  tape.backward(weighted_sum(tape, sel.demand));
  EXPECT_EQ(tape.size(segment_softmax(tape, xp, none, 1.0f)), 0u);
}

}  // namespace
}  // namespace dgr::ad
