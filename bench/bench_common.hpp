#pragma once
// Shared plumbing for the table/figure harnesses.
//
// Environment knobs (all optional):
//   DGR_BENCH_SCALE   scales testcase sizes (default 1.0; the default sizes
//                     are already far below the contest benchmarks, see
//                     EXPERIMENTS.md)
//   DGR_ILP_TIMEOUT   seconds per ILP solve before the row prints N/A
//                     (default 20; the paper used 8 hours)
//   DGR_DGR_ITERS     DGR training iterations (default 1000, as the paper)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "dgr/dgr.hpp"

namespace dgr::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atof(v);
}

inline double bench_scale() { return env_double("DGR_BENCH_SCALE", 1.0); }
inline double ilp_timeout() { return env_double("DGR_ILP_TIMEOUT", 20.0); }
inline int dgr_iterations() { return static_cast<int>(env_double("DGR_DGR_ITERS", 1000)); }

/// Quiet logs + a banner for the harness output.
inline void begin_bench(const std::string& title, const std::string& paper_ref) {
  util::set_log_level(util::LogLevel::kWarn);
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n";
  std::cout << "scale=" << bench_scale() << " (set DGR_BENCH_SCALE to resize)\n\n";
}

/// The unified emitter for BENCH_<name>.json, pre-stamped with the shared
/// environment knobs so every artifact records how it was produced
/// (validated against dgr-bench-v1 by bench/check_bench_schema).
inline obs::BenchEmitter make_emitter(const std::string& name,
                                      const std::string& paper_ref) {
  obs::BenchEmitter emitter(name, paper_ref);
  emitter.set_config("scale", bench_scale());
  emitter.set_config("dgr_iterations", dgr_iterations());
  return emitter;
}

/// DGR config for the Table 1 protocol: ReLU overflow objective only and
/// argmax path extraction ("DGR directly picks the path with the largest
/// probability", Section 5.1).
inline core::DgrConfig table1_dgr_config(int iterations) {
  core::DgrConfig config;
  config.activation = ad::Activation::kReLU;
  config.weight_overflow = 1.0f;
  config.weight_wirelength = 0.0f;
  config.weight_via = 0.0f;
  config.iterations = iterations;
  config.temperature_interval = std::max(1, iterations / 10);
  config.top_p = 0.0f;  // argmax extraction
  config.patience_checks = 0;  // the paper's fixed schedule
  return config;
}

/// RouterOptions for a standard DGR run at the bench's iteration budget
/// (paper defaults otherwise, including the fixed schedule: no plateau
/// stop). Every harness selects routers through the pipeline registry with
/// these options.
inline pipeline::RouterOptions dgr_router_options(int iterations) {
  pipeline::RouterOptions options;
  options.dgr.iterations = iterations;
  options.dgr.temperature_interval = std::max(1, iterations / 10);
  options.dgr.patience_checks = 0;
  return options;
}

/// RouterStats stage times as the name/seconds pairs BenchRow::stages takes.
inline std::vector<std::pair<std::string, double>> stage_pairs(
    const pipeline::RouterStats& stats) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(stats.stages.size());
  for (const auto& s : stats.stages) out.emplace_back(s.stage, s.seconds);
  return out;
}

/// DGR solver time, excluding DAG-forest construction (Fig. 5 footnote 3).
inline double dgr_solve_seconds(const pipeline::RouterStats& stats) {
  return stats.stage_seconds("train") + stats.stage_seconds("extract");
}

}  // namespace dgr::bench
