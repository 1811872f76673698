#pragma once
/// \file
/// \brief The differentiable global router (Sections 4.3–4.5).
///
/// Trainables: one logit per path candidate and one per tree candidate;
/// only those in groups of two or more ever move (Relaxation::trainable).
/// Each iteration builds the expectation of the Eq. (3) cost on an ad::Tape
/// (Gumbel-softmax over groups -> coupled selection mass -> expected demand
/// -> activation overflow + WL + via terms), back-propagates, and takes an
/// Adam step; the temperature anneals on a fixed schedule, which train()
/// cuts short once its best extraction is clean (overflow-free, or cleared
/// by maze refine) and stops improving (DgrConfig::patience_checks).
/// extract() turns the optimised probabilities into a discrete
/// RouteSolution (argmax trees, top-p paths with greedy commitment).

#include <vector>

#include "ad/adam.hpp"
#include "core/config.hpp"
#include "core/relaxation.hpp"
#include "eval/solution.hpp"
#include "obs/convergence.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace dgr::core {

/// Path-candidate count from which a DgrSolver's kernels use the thread
/// pool. Below it, train() (its plateau checks included), train_step(),
/// extract(), evaluate() and the probability queries run every kernel
/// inline on the calling thread (util::InlineScope). Measured on the 4-vCPU
/// bench host: 4 workers lost to 1 or tied up to about 3,000 candidates and
/// won from 3,348 up; every bench_suite design has at most 3,313
/// (DESIGN.md §5.5). Inline and pooled runs are bitwise identical, so the
/// rule moves time, never results.
inline constexpr std::size_t kPooledPathCandidates = 4'000;

struct CostBreakdown {
  double total = 0.0;
  double overflow = 0.0;    ///< Σ f(d - cap), pre-weight
  double wirelength = 0.0;  ///< Σ eff * WL, pre-weight
  double via = 0.0;         ///< √L Σ eff * TP, pre-weight
};

/// Why train() returned.
enum class StopReason {
  kIterations,  ///< ran the whole schedule; the final logits stay
  kPlateau,     ///< clean best check not beaten by patience_checks checks
  kDeadline,    ///< DgrConfig::deadline expired (kStageTimeout)
  kDivergence,  ///< rollback budget exhausted (kNumericDivergence)
};

struct TrainStats {
  int iterations_run = 0;              ///< gradient steps executed (incl. replays)
  StopReason stop_reason = StopReason::kIterations;
  int checks = 0;                      ///< plateau checks run (extract + score)
  /// Checks whose new best overflowed on 1–2 edges and so ran maze refine
  /// on its extraction to decide whether it is clean, and their time.
  int refine_checks = 0;
  double refine_seconds = 0.0;
  /// Kept iteration count at the best-scoring check; -1 when none ran. On a
  /// plateau stop the solver holds that check's logits.
  int best_check_iteration = -1;
  double train_seconds = 0.0;
  CostBreakdown final_cost;            ///< noise-free cost at final temperature
  /// Convergence telemetry (when DgrConfig::record_telemetry): loss,
  /// overflow expectation, temperature, gradient norm per kept iteration
  /// plus rollback events. Pre-reserved; rewound on rollback so samples
  /// align with the kept trajectory.
  obs::ConvergenceSeries telemetry;
  std::size_t tape_bytes = 0;          ///< peak tape footprint ("GPU memory" proxy)
  int rollbacks = 0;                   ///< divergence rollbacks taken (health sentinel)
  std::size_t logits = 0;              ///< path + tree logits
  std::size_t trainable_logits = 0;    ///< logits in groups of two or more candidates
  /// OK on a clean run; kNumericDivergence when the rollback budget was
  /// exhausted, kStageTimeout when DgrConfig::deadline expired. On a
  /// non-OK status the solver's parameters are the best-so-far checkpoint,
  /// so extract() still yields the last healthy solution.
  Status status;
};

class DgrSolver {
 public:
  /// `capacities`: per-edge 2D capacities (Eq. 1 output or an explicit
  /// uniform vector for the Table 1 protocol). Copied.
  DgrSolver(const dag::DagForest& forest, std::vector<float> capacities,
            DgrConfig config = {});

  /// Runs the training loop: the full schedule, or up to a clean plateau
  /// (DgrConfig::patience_checks).
  TrainStats train();

  /// One gradient step at the given iteration index (exposed for tests and
  /// custom schedules). Returns the (stochastic) training cost. When the
  /// loss or gradients are non-finite, the Adam update is skipped (the
  /// optimizer state stays clean) and last_step_finite() reports false.
  double train_step(int iteration);

  /// Numeric-health verdict of the most recent train_step().
  bool last_step_finite() const { return last_step_finite_; }

  /// L2 norm of the full parameter gradient of the most recent train_step()
  /// (inert logits contribute exactly 0).
  double last_grad_norm() const { return last_grad_norm_; }
  /// Cost breakdown of the most recent train_step() (stochastic forward).
  const CostBreakdown& last_breakdown() const { return last_breakdown_; }

  /// Noise-free expected cost at temperature t (forward only).
  CostBreakdown evaluate(float temperature) const;

  /// Deterministic per-group probabilities (softmax, no noise).
  std::vector<float> path_probs(float temperature) const;
  std::vector<float> tree_probs(float temperature) const;

  /// Discrete extraction (Section 4.5): argmax trees, top-p paths committed
  /// greedily in decreasing-confidence order against true residual capacity.
  eval::RouteSolution extract() const;

  float temperature_at(int iteration) const;
  const Relaxation& relaxation() const { return relax_; }
  const DgrConfig& config() const { return config_; }
  const std::vector<float>& capacities() const { return capacities_; }

  /// Direct logit access (tests / warm starts). Every write is seen by the
  /// next forward pass, but training moves only Relaxation::trainable.
  std::vector<float>& logits() { return params_; }
  std::size_t path_logit_count() const { return relax_.path_count(); }
  std::size_t tree_logit_count() const { return relax_.tree_count(); }

 private:
  struct Forward {
    ad::NodeId cost;
    ad::NodeId path_logits;
    ad::NodeId tree_logits;
    CostBreakdown breakdown;
  };
  /// Opens the inline scope of this solver's size (kPooledPathCandidates).
  util::InlineScope kernel_scope() const {
    return util::InlineScope(relax_.path_count() < kPooledPathCandidates);
  }
  /// Builds the Fig. 4 computation graph on `tape`.
  Forward build_forward(ad::Tape& tape, float temperature,
                        const std::vector<float>* path_noise,
                        const std::vector<float>* tree_noise) const;

  /// Best-so-far solver state for divergence rollback: a parameter snapshot
  /// plus the iteration the replay resumes from (which also re-anneals the
  /// temperature, since the schedule is a pure function of the iteration).
  struct Checkpoint {
    std::vector<float> params;
    int next_iteration = 0;
    double cost = 0.0;
  };

  const dag::DagForest& forest_;
  Relaxation relax_;
  std::vector<float> capacities_;
  DgrConfig config_;
  std::vector<float> params_;  ///< [path logits | tree logits]
  ad::Adam adam_;
  util::Rng rng_;
  /// Reused across train_step calls: reset() keeps the arena capacity, so
  /// steady-state iterations record the same graph with zero heap
  /// allocation. The noise/grad buffers below reach a fixed size after the
  /// first step for the same reason. The noise is written at trainable
  /// logits only; grads_ holds one entry per Relaxation::trainable index.
  ad::Tape tape_;
  std::vector<float> path_noise_;
  std::vector<float> tree_noise_;
  std::vector<double> grads_;
  float via_cost_scale_ = 1.0f;  ///< √L of Eq. (5)
  std::size_t peak_tape_bytes_ = 0;
  bool last_step_finite_ = true;
  double last_grad_norm_ = 0.0;
  CostBreakdown last_breakdown_;
  /// Bumped on every rollback so the replayed iterations draw fresh Gumbel
  /// noise (replaying the exact diverging trajectory would just diverge
  /// again). Deterministic: a pure function of the rollback count.
  int noise_generation_ = 0;
};

}  // namespace dgr::core
