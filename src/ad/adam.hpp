#pragma once
// Adam optimizer (Kingma & Ba) over a flat parameter vector — the paper
// optimizes the trainable logits w with Adam at learning rate 0.3.

#include <cstdint>
#include <vector>

namespace dgr::ad {

struct AdamConfig {
  double lr = 0.3;  ///< paper default for DGR
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Adam {
 public:
  /// Trains every parameter of a vector of `size`.
  Adam(std::size_t size, AdamConfig config = {});
  /// Trains only params[trained[k]] (indices into a vector of `size`,
  /// ascending so no two parallel chunks share a parameter): the other
  /// parameters are never written and keep no moments.
  Adam(std::size_t size, std::vector<std::int32_t> trained, AdamConfig config);

  /// Applies one update to every trained parameter, with grads[k] the
  /// gradient of params[trained[k]]:
  /// params -= lr * m_hat / (sqrt(v_hat) + eps).
  void step(std::vector<float>& params, const std::vector<double>& grads);

  std::int64_t iteration() const { return t_; }
  const AdamConfig& config() const { return config_; }
  void set_learning_rate(double lr) { config_.lr = lr; }

  /// Zeroes the moment estimates and step count. Used by the solver's
  /// divergence rollback: stale moments computed from a poisoned trajectory
  /// must not leak into the replayed steps.
  void reset();

 private:
  AdamConfig config_;
  std::size_t size_ = 0;
  std::vector<std::int32_t> trained_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::int64_t t_ = 0;
};

}  // namespace dgr::ad
