#pragma once
/// \file
/// \brief DGR hyper-parameters. Defaults follow Section 5 of the paper:
/// ICCAD'19 metric weights (500 / 4 / 0.5), sigmoid overflow activation,
/// Adam lr 0.3, 1000 iterations, initial temperature 1 scaled by 0.9 every
/// 100 iterations, Gumbel noise on, top-p extraction.

#include <atomic>
#include <cstdint>
#include <string>

#include "ad/ops.hpp"

namespace dgr::core {

struct DgrConfig {
  // Objective weights: cost = a3*overflow + a2*via + a1*wirelength.
  float weight_wirelength = 0.5f;  ///< a1
  float weight_via = 4.0f;         ///< a2
  float weight_overflow = 500.0f;  ///< a3

  ad::Activation activation = ad::Activation::kSigmoid;
  float activation_alpha = 1.0f;  ///< LeakyReLU/CELU parameter

  int iterations = 1000;
  double learning_rate = 0.3;

  float initial_temperature = 1.0f;
  float temperature_decay = 0.9f;
  int temperature_interval = 100;  ///< iterations between decays
  bool use_gumbel = true;          ///< Gumbel noise on logits

  float top_p = 0.9f;  ///< cumulative-probability threshold for extraction

  std::uint64_t seed = 1;
  float init_logit_std = 0.5f;  ///< random logit initialisation scale

  bool record_history = false;  ///< keep per-iteration cost curves

  /// Record the full convergence telemetry series (loss, overflow
  /// expectation, temperature, gradient norm, rollback events — the data
  /// behind the paper's Fig. 5/6 convergence plots) into
  /// TrainStats::telemetry. The buffer is pre-reserved for `iterations`
  /// samples so the train loop performs no per-step heap allocation.
  bool record_telemetry = false;

  // ---- numeric health / fault tolerance (DESIGN.md §7) --------------------
  /// Finite-check the loss and gradients every iteration *before* the Adam
  /// step, so a NaN can never corrupt the optimizer moments. On a failed
  /// check the solver rolls back to its best-so-far checkpoint, re-anneals
  /// the temperature from there and replays with fresh (decorrelated) Gumbel
  /// noise, up to `max_rollbacks` times; an exhausted budget ends training
  /// with StatusCode::kNumericDivergence and the checkpoint parameters.
  bool health_checks = true;
  int max_rollbacks = 3;  ///< divergence rollback retry budget
  /// Wall-clock budget for train() in seconds; 0 = unlimited. On expiry the
  /// loop stops at the best-so-far checkpoint and reports
  /// StatusCode::kStageTimeout (the pipeline's cooperative stage budget).
  double time_budget_seconds = 0.0;
  /// Optional external cancel flag, polled once per train iteration. When
  /// it reads true the loop stops at the best-so-far checkpoint exactly as
  /// a budget expiry (kStageTimeout). Owned by the caller (the serve
  /// daemon's deadline watchdog sets it from another thread); must outlive
  /// train(). nullptr = no external cancellation.
  const std::atomic<bool>* cancel_flag = nullptr;
};

/// One-line description for logs/bench labels.
std::string describe(const DgrConfig& config);

}  // namespace dgr::core
