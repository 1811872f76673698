#pragma once
// Adam optimizer (Kingma & Ba) over a flat parameter vector — the paper
// optimizes the trainable logits w with Adam at learning rate 0.3.

#include <cstdint>
#include <vector>

namespace dgr::ad {

/// Adam with the usual moment decays beta1 = 0.9, beta2 = 0.999 and
/// eps = 1e-8; only the learning rate is a parameter.
class Adam {
 public:
  /// Trains every parameter of a vector of `size`. 0.3 is the paper's rate.
  explicit Adam(std::size_t size, double lr = 0.3);
  /// Trains only params[trained[k]] (indices into a vector of `size`,
  /// ascending so no two parallel chunks share a parameter): the other
  /// parameters are never written and keep no moments.
  Adam(std::size_t size, std::vector<std::int32_t> trained, double lr);

  /// Applies one update to every trained parameter, with grads[k] the
  /// gradient of params[trained[k]]:
  /// params -= lr * m_hat / (sqrt(v_hat) + eps).
  void step(std::vector<float>& params, const std::vector<double>& grads);

  std::int64_t iteration() const { return t_; }

  /// Zeroes the moment estimates and step count. Used by the solver's
  /// divergence rollback: stale moments computed from a poisoned trajectory
  /// must not leak into the replayed steps.
  void reset();

 private:
  double lr_ = 0.0;
  std::size_t size_ = 0;
  std::vector<std::int32_t> trained_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::int64_t t_ = 0;
};

}  // namespace dgr::ad
