#pragma once
// The overflow activations studied in Fig. 6 of the paper. Split out of
// ops.hpp so the SIMD kernel layer (ad/simd.hpp) can name them without
// pulling in the full op set.

#include <algorithm>
#include <cmath>

namespace dgr::ad {

enum class Activation { kReLU, kSigmoid, kLeakyReLU, kExp, kCELU };
const char* activation_name(Activation a);

// The one scalar definition of each activation, used by the scalar kernels
// (ops.cpp) and by the n mod 8 tails of the AVX2 kernels (simd_avx2.cpp).
// Internal linkage: every TU compiles its own copy under its own ISA flags,
// so the linker never merges the -mavx2 -mfma copy with the baseline one.
namespace {

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

}  // namespace
}  // namespace dgr::ad
