#include "core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::core {

DgrSolver::DgrSolver(const dag::DagForest& forest, std::vector<float> capacities,
                     DgrConfig config)
    : forest_(forest),
      relax_(Relaxation::build(forest)),
      capacities_(std::move(capacities)),
      config_(config),
      params_(relax_.logit_count(), 0.0f),
      adam_(params_.size(), relax_.trainable,
            ad::AdamConfig{config.learning_rate, 0.9, 0.999, 1e-8}),
      rng_(config.seed) {
  if (capacities_.size() != static_cast<std::size_t>(forest.design().grid().edge_count())) {
    throw std::invalid_argument("DgrSolver: capacity vector size mismatch");
  }
  via_cost_scale_ =
      std::sqrt(static_cast<float>(forest.design().grid().layer_count()));
  // Random logit initialisation ("w is initialized randomly", Section 5).
  util::Rng init = rng_.fork(0xC0FFEE);
  for (float& w : params_) {
    w = static_cast<float>(init.normal()) * config_.init_logit_std;
  }
}

float DgrSolver::temperature_at(int iteration) const {
  const int decays = config_.temperature_interval > 0
                         ? iteration / config_.temperature_interval
                         : 0;
  // Floor the schedule: at extreme iteration counts (serve clients may ask
  // for millions) the decayed product underflows float to exactly 0, which
  // the softmax ops reject. A tiny positive temperature is numerically an
  // argmax and keeps every downstream op legal.
  constexpr float kMinTemperature = 1e-6f;
  return std::max(config_.initial_temperature *
                      std::pow(config_.temperature_decay, static_cast<float>(decays)),
                  kMinTemperature);
}

DgrSolver::Forward DgrSolver::build_forward(ad::Tape& tape, float temperature,
                                            const std::vector<float>* path_noise,
                                            const std::vector<float>* tree_noise) const {
  Forward fw;
  fw.path_logits = tape.input(params_.data(), relax_.path_count());
  fw.tree_logits = tape.input(params_.data() + relax_.path_count(), relax_.tree_count());

  // Gumbel-softmax over both groups -> coupled selection mass eff_i =
  // q_tree(i) * p_i -> expected demand (Eq. 10) as one fused job, then the
  // Eq. 9 overflow Σ_e f(d_e - cap_e) as a single activation+reduction pass.
  const ad::FusedSelectionDemand sel = ad::fused_softmax_demand(
      tape, fw.path_logits, fw.tree_logits, relax_.path_group_offsets,
      relax_.tree_group_offsets, relax_.path_tree, relax_.tree_path_offsets,
      relax_.incidence, temperature, path_noise, tree_noise);
  const ad::NodeId overflow = ad::fused_overflow_cost(
      tape, sel.demand, capacities_, config_.activation, config_.activation_alpha);

  // wirelength_cost = Σ eff_i WL_i (Eq. 11); via_cost = √L Σ eff_i TP_i (Eq. 12).
  const ad::NodeId wl = ad::weighted_sum(tape, sel.eff, relax_.wirelength);
  const ad::NodeId via = ad::weighted_sum(tape, sel.eff, relax_.turns);

  fw.cost = ad::combine(tape, {overflow, via, wl},
                        {config_.weight_overflow, config_.weight_via * via_cost_scale_,
                         config_.weight_wirelength});

  fw.breakdown.overflow = tape.value(overflow)[0];
  fw.breakdown.wirelength = tape.value(wl)[0];
  fw.breakdown.via = static_cast<double>(via_cost_scale_) * tape.value(via)[0];
  fw.breakdown.total = tape.value(fw.cost)[0];
  return fw;
}

double DgrSolver::train_step(int iteration) {
  DGR_TRACE_SCOPE("core.train_step");
  const float t = temperature_at(iteration);
  const std::size_t np = relax_.path_count();
  const std::size_t nt = relax_.tree_count();

  if (config_.use_gumbel) {
    // Generation 0 reproduces the historical noise stream exactly; each
    // rollback bumps the generation so replayed iterations decorrelate.
    util::Rng noise_rng = rng_.fork(0x6E015E ^ static_cast<std::uint64_t>(iteration) ^
                                    (static_cast<std::uint64_t>(noise_generation_) << 40));
    path_noise_.resize(np);
    tree_noise_.resize(nt);
    // One draw per candidate in [paths | trees] order, but only trainable
    // logits pay for the logs: an inert logit's softmax is 1 whatever its
    // noise. Draws past the last trainable logit are never observed.
    std::size_t next = 0;
    for (const std::int32_t i : relax_.trainable) {
      const auto k = static_cast<std::size_t>(i);
      for (; next < k; ++next) noise_rng.discard_gumbel();
      (k < np ? path_noise_[k] : tree_noise_[k - np]) = static_cast<float>(noise_rng.gumbel());
      next = k + 1;
    }
  }

  // Steady-state iterations re-record the same graph shape into the reused
  // member tape, so after the first step neither the tape nor the noise /
  // gradient buffers allocate (the ad.arena_regrowth counter proves it).
  tape_.reset();
  const Forward fw = build_forward(tape_, t, config_.use_gumbel ? &path_noise_ : nullptr,
                                   config_.use_gumbel ? &tree_noise_ : nullptr);
  tape_.backward(fw.cost);
  peak_tape_bytes_ = std::max(peak_tape_bytes_, tape_.memory_bytes());

  // Gather the trainable logits' gradients for one Adam step; every inert
  // logit's gradient is exactly 0, so the norm below is the full one.
  std::vector<double>& grads = grads_;
  grads.resize(relax_.trainable.size());
  {
    const double* gp = tape_.grad(fw.path_logits).data();
    const double* gt = tape_.grad(fw.tree_logits).data();
    for (std::size_t j = 0; j < grads.size(); ++j) {
      const auto k = static_cast<std::size_t>(relax_.trainable[j]);
      grads[j] = k < np ? gp[k] : gt[k - np];
    }
  }

  double cost = fw.breakdown.total;
  if (DGR_FAULT_POINT("core.loss")) cost = std::numeric_limits<double>::quiet_NaN();
  if (DGR_FAULT_POINT("core.grad") && !grads.empty()) {
    grads[0] = std::numeric_limits<double>::quiet_NaN();
  }

  // Numeric-health sentinel: a single fused accumulation over the gradient
  // vector — any NaN/Inf poisons the running sum, so one isfinite() at the
  // end covers every element (a finite sum of this many bounded gradients
  // cannot overflow). Checked BEFORE the Adam step so a poisoned gradient
  // never reaches the optimizer moments. The squared sum rides along in the
  // same sweep for the convergence telemetry's gradient norm.
  double grad_acc = 0.0;
  double grad_sq = 0.0;
  for (const double g : grads) {
    grad_acc += g;
    grad_sq += g * g;
  }
  last_grad_norm_ = std::sqrt(grad_sq);
  last_breakdown_ = fw.breakdown;
  last_step_finite_ = std::isfinite(cost) && std::isfinite(grad_acc);
  if (!last_step_finite_) {
    return cost;  // skip the update; train() decides whether to roll back
  }

  adam_.step(params_, grads);
  return cost;
}

TrainStats DgrSolver::train() {
  DGR_TRACE_SCOPE("core.train");
  TrainStats stats;
  stats.logits = params_.size();
  stats.trainable_logits = relax_.trainable.size();
  util::Timer timer;
  // Telemetry capacity is reserved once, up front: the train loop must do
  // no per-step heap allocation (pushes past this capacity are counted by
  // the obs.convergence.unreserved_growth metric and asserted zero in tests).
  if (config_.record_telemetry) {
    stats.telemetry.reserve(static_cast<std::size_t>(config_.iterations));
  }

  // The seeded initialisation is always a legal restore point; after that
  // the checkpoint tracks the best (lowest training cost) iterate seen.
  Checkpoint best;
  best.params = params_;
  best.next_iteration = 0;
  best.cost = std::numeric_limits<double>::infinity();

  bool restore_checkpoint = false;
  int it = 0;
  int steps_executed = 0;
  // An empty forest (no routable net) has no logits: it trains zero steps.
  const int iterations = params_.empty() ? 0 : config_.iterations;
  while (it < iterations) {
    if (config_.deadline.expired()) {
      stats.status = Status(StatusCode::kStageTimeout,
                            "train: deadline expired at iteration " + std::to_string(it) +
                                "/" + std::to_string(config_.iterations));
      restore_checkpoint = best.cost < std::numeric_limits<double>::infinity();
      break;
    }

    const double cost = train_step(it);
    ++steps_executed;

    if (!last_step_finite_) {
      // Divergence: the sentinel already kept the Adam state clean; roll the
      // parameters back to the checkpoint, clear the (possibly stale)
      // moments, and replay from there with fresh noise. Resuming at the
      // checkpoint's iteration re-anneals the temperature automatically.
      if (stats.rollbacks >= config_.max_rollbacks) {
        stats.status = Status(StatusCode::kNumericDivergence,
                              "train: non-finite loss/gradients at iteration " +
                                  std::to_string(it) + ", rollback budget (" +
                                  std::to_string(config_.max_rollbacks) + ") exhausted");
        restore_checkpoint = true;
        break;
      }
      ++stats.rollbacks;
      DGR_LOG_WARN("train: non-finite loss/gradients at iteration %d; rollback %d/%d to "
                   "iteration %d",
                   it, stats.rollbacks, config_.max_rollbacks, best.next_iteration);
      DGR_TRACE_INSTANT("core.rollback");
      params_ = best.params;
      adam_.reset();
      ++noise_generation_;
      if (config_.record_telemetry) {
        // Rewind the kept trajectory; the rollback event itself survives.
        stats.telemetry.truncate(static_cast<std::size_t>(best.next_iteration));
        stats.telemetry.rollbacks.push_back({it, best.next_iteration});
      }
      it = best.next_iteration;
      continue;
    }

    if (config_.record_telemetry) {
      stats.telemetry.push(
          {it, cost, last_breakdown_.overflow, temperature_at(it), last_grad_norm_});
    }
    // Per-iteration counter series for the Chrome trace (one relaxed load
    // each when tracing is off).
    DGR_TRACE_COUNTER("dgr.loss", cost);
    DGR_TRACE_COUNTER("dgr.overflow", last_breakdown_.overflow);
    DGR_TRACE_COUNTER("dgr.temperature", temperature_at(it));
    DGR_TRACE_COUNTER("dgr.grad_norm", last_grad_norm_);
    if (cost < best.cost) {
      best.cost = cost;
      best.params = params_;
      best.next_iteration = it + 1;
    }
    if ((it + 1) % 100 == 0) {
      DGR_LOG_DEBUG("iter %d/%d cost=%.4f t=%.3f", it + 1, config_.iterations, cost,
                    temperature_at(it));
    }
    ++it;
  }

  // On any early stop, leave the best healthy checkpoint behind so
  // extract() still produces the last healthy solution.
  if (restore_checkpoint) params_ = best.params;

  stats.iterations_run = steps_executed;
  stats.train_seconds = timer.seconds();
  obs::metrics().counter("core.train.iterations").add(steps_executed);
  if (stats.rollbacks > 0) {
    obs::metrics().counter("core.train.rollbacks").add(stats.rollbacks);
  }
  stats.final_cost = evaluate(temperature_at(std::clamp(it, 0, std::max(0, config_.iterations - 1))));
  stats.tape_bytes = peak_tape_bytes_;
  return stats;
}

CostBreakdown DgrSolver::evaluate(float temperature) const {
  ad::Tape tape;
  return build_forward(tape, temperature, nullptr, nullptr).breakdown;
}

std::vector<float> DgrSolver::path_probs(float temperature) const {
  ad::Tape tape;
  const ad::NodeId logits = tape.input(params_.data(), relax_.path_count());
  const ad::NodeId p =
      ad::segment_softmax(tape, logits, relax_.path_group_offsets, temperature, nullptr);
  const std::span<const float> pv = tape.value(p);
  return {pv.begin(), pv.end()};
}

std::vector<float> DgrSolver::tree_probs(float temperature) const {
  ad::Tape tape;
  const ad::NodeId logits =
      tape.input(params_.data() + relax_.path_count(), relax_.tree_count());
  const ad::NodeId q =
      ad::segment_softmax(tape, logits, relax_.tree_group_offsets, temperature, nullptr);
  const std::span<const float> qv = tape.value(q);
  return {qv.begin(), qv.end()};
}

}  // namespace dgr::core
