#include "ad/adam.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dgr::ad {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

std::vector<std::int32_t> every_index(std::size_t size) {
  std::vector<std::int32_t> all(size);
  std::iota(all.begin(), all.end(), 0);
  return all;
}
}  // namespace

Adam::Adam(std::size_t size, double lr) : Adam(size, every_index(size), lr) {}

Adam::Adam(std::size_t size, std::vector<std::int32_t> trained, double lr)
    : lr_(lr),
      size_(size),
      trained_(std::move(trained)),
      m_(trained_.size(), 0.0),
      v_(trained_.size(), 0.0) {
  if (!trained_.empty() &&
      (trained_.front() < 0 || static_cast<std::size_t>(trained_.back()) >= size_ ||
       !std::is_sorted(trained_.begin(), trained_.end()))) {
    throw std::invalid_argument("Adam: trained indices must be ascending and in range");
  }
}

void Adam::step(std::vector<float>& params, const std::vector<double>& grads) {
  if (params.size() != size_ || grads.size() != trained_.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  util::ParallelRuntime::for_blocked(
      0, trained_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          m_[k] = kBeta1 * m_[k] + (1.0 - kBeta1) * grads[k];
          v_[k] = kBeta2 * v_[k] + (1.0 - kBeta2) * grads[k] * grads[k];
          const double m_hat = m_[k] / bc1;
          const double v_hat = v_[k] / bc2;
          params[static_cast<std::size_t>(trained_[k])] -=
              static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + kEps));
        }
      },
      4096);
}

void Adam::reset() {
  std::fill(m_.begin(), m_.end(), 0.0);
  std::fill(v_.begin(), v_.end(), 0.0);
  t_ = 0;
}

}  // namespace dgr::ad
