#pragma once
/// \file
/// \brief DGR hyper-parameters. Defaults follow Section 5 of the paper:
/// ICCAD'19 metric weights (500 / 4 / 0.5), sigmoid overflow activation,
/// Adam lr 0.3, 1000 iterations, initial temperature 1 scaled by 0.9 every
/// 100 iterations, Gumbel noise on, top-p extraction. One addition: training
/// stops early once its best extraction is clean (overflow-free, or cleared
/// by maze refine) and has stopped improving (patience_checks; 0 restores
/// the fixed schedule).

#include <cstdint>

#include "ad/ops.hpp"
#include "eval/metrics.hpp"
#include "util/deadline.hpp"

namespace dgr::core {

struct DgrConfig {
  // Objective weights: cost = a3*overflow + a2*via + a1*wirelength.
  float weight_wirelength = static_cast<float>(eval::kWirelengthWeight);  ///< a1
  float weight_via = static_cast<float>(eval::kViaWeight);                ///< a2
  float weight_overflow = static_cast<float>(eval::kOverflowWeight);      ///< a3

  ad::Activation activation = ad::Activation::kSigmoid;
  float activation_alpha = 1.0f;  ///< LeakyReLU/CELU parameter

  int iterations = 1000;
  double learning_rate = 0.3;

  float initial_temperature = 1.0f;
  float temperature_decay = 0.9f;
  int temperature_interval = 100;  ///< iterations between decays
  bool use_gumbel = true;          ///< Gumbel noise on logits

  float top_p = 0.9f;  ///< cumulative-probability threshold for extraction

  /// Plateau stop (DESIGN.md §5.3). Every 50 kept iterations train()
  /// extracts, scores the routes with eval::reroute_score and keeps the
  /// best-scoring logits. A best is clean when its extraction has no
  /// overflowed edge, or at most 2 that post::maze_refine (run once on a
  /// copy, as the flow's refine stage would) clears. Once the best is clean
  /// and this many checks in a row have not beaten it, training stops and
  /// extract() returns the best check. While the best is not clean, the gap
  /// between checks doubles (50, 150, 350, 750) and the schedule runs to its
  /// end with its final logits. 0 runs the paper's fixed schedule with no
  /// checks. The default stops a clean design no earlier than iteration
  /// 200. A caller that runs no maze refine gets the best check's routes
  /// as extracted, which may keep those 1–2 overflowed edges.
  int patience_checks = 3;

  std::uint64_t seed = 1;

  /// Record the full convergence telemetry series (loss, overflow
  /// expectation, temperature, gradient norm, rollback events — the data
  /// behind the paper's Fig. 5/6 convergence plots) into
  /// TrainStats::telemetry. The buffer is pre-reserved for `iterations`
  /// samples so the train loop performs no per-step heap allocation.
  bool record_telemetry = false;

  // ---- numeric health / fault tolerance (DESIGN.md §7) --------------------
  /// The loss and gradients are finite-checked every iteration *before* the
  /// Adam step, so a NaN can never corrupt the optimizer moments. On a
  /// failed check the solver rolls back to its best-so-far checkpoint,
  /// re-anneals the temperature from there and replays with fresh
  /// (decorrelated) Gumbel noise, up to `max_rollbacks` times; an exhausted
  /// budget ends training with StatusCode::kNumericDivergence and the
  /// checkpoint parameters.
  int max_rollbacks = 3;  ///< divergence rollback retry budget
  /// Polled once per train iteration. On expiry the loop stops at the
  /// best-so-far checkpoint and reports StatusCode::kStageTimeout. The
  /// default never expires.
  util::Deadline deadline;
};

}  // namespace dgr::core
