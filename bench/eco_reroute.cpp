// ECO harness: delta-vs-full reroute speedup by dirty fraction.
//
// For each target dirty fraction, routes a baseline design, applies a
// seeded pin-move mutation sized to move pins of ~that fraction of nets,
// and times the EcoEngine's incremental apply() against a from-scratch
// route of the same evolved design (both paths include the validation gate
// and shared eval, so the ratio is end-to-end, not route-stage-only).
// Emits BENCH_eco.json via the dgr-bench-v1 emitter.
//
// The mutation names `seed_dirty` nets; the closure (legality rounds plus
// the opportunity rule, DESIGN.md §9) then grows that set, so the actual
// dirty fraction (`closure_nets` / routable nets) can be several times the
// target. Rows report both, and the summary gate counts only the rows whose
// *actual* fraction is at most 10%. Each row runs kRepetitions times from a
// fresh engine and reports the median times and the speedup of the medians.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_suite/stats.hpp"

namespace {

using dgr::design::Mutation;
using dgr::design::MutationParams;
using dgr::eco::EcoEngine;
using dgr::eco::EcoOptions;
using dgr::eco::EcoResult;
using dgr::eco::EcoStats;

constexpr int kRepetitions = 5;

dgr::design::Design bench_design(double scale) {
  dgr::design::IspdLikeParams p;
  p.name = "eco_bench";
  p.grid_w = p.grid_h = static_cast<int>(48 * scale);
  p.num_nets = static_cast<int>(1400 * scale * scale);
  p.layers = 6;
  p.tracks_per_layer = 4;
  return dgr::design::generate_ispd_like(p, 77);
}

}  // namespace

int main() {
  dgr::bench::begin_bench("ECO incremental rerouting",
                          "delta-vs-full speedup by dirty fraction (DESIGN.md §9)");
  const double scale = dgr::bench::bench_scale();

  dgr::obs::BenchEmitter emitter = dgr::bench::make_emitter(
      "eco", "ECO delta-vs-full reroute by dirty fraction (DESIGN.md §9)");
  emitter.set_config("router", "cugr2-lite");
  emitter.set_config("grid", 48 * scale);
  emitter.set_config("nets", 1400 * scale * scale);
  emitter.set_config("repetitions", kRepetitions);

  const double fractions[] = {0.01, 0.02, 0.05, 0.10, 0.20};
  double worst_small_speedup = 1e30;  // min speedup over actual fractions <= 0.10

  std::printf("%-8s %8s %6s %8s %10s %10s %9s\n", "target", "actual", "seed", "closure",
              "eco_s", "full_s", "speedup");
  for (const double target : fractions) {
    EcoOptions opts;
    opts.router = "cugr2-lite";
    opts.full_reroute_threshold = 0.5;  // keep every target on the delta path

    // Every repetition replays the same seeded route and mutation, so the
    // quality fields of `eco` and `full` are those of any one of them.
    std::vector<EcoStats> eco_runs;
    std::vector<double> full_seconds;
    EcoResult eco;
    EcoResult full;
    std::string mutation;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      EcoEngine engine(dgr::design::make_design_state(bench_design(scale), 77), opts);
      auto base = engine.route_full();
      if (!base.ok()) {
        std::fprintf(stderr, "baseline route failed: %s\n",
                     base.status().message().c_str());
        return 1;
      }

      MutationParams params;
      params.move_fraction = target;
      params.move_jitter = 0.06;  // local pin churn
      dgr::util::Rng rng(1000 + static_cast<unsigned long long>(target * 100));
      const Mutation m = dgr::design::make_move_pins(engine.state(), params, rng);

      auto step = engine.apply(m);
      if (!step.ok()) {
        std::fprintf(stderr, "eco apply failed: %s\n", step.status().message().c_str());
        return 1;
      }
      eco = step.take();

      // From-scratch referent on the same evolved design.
      EcoEngine scratch(engine.state(), opts);
      auto cold = scratch.route_full();
      if (!cold.ok()) {
        std::fprintf(stderr, "scratch route failed: %s\n",
                     cold.status().message().c_str());
        return 1;
      }
      full = cold.take();

      eco_runs.push_back(eco.stats);
      full_seconds.push_back(full.stats.total_seconds);
      mutation = m.label;
    }

    const auto median_of = [&](double EcoStats::*field) {
      std::vector<double> v;
      for (const EcoStats& s : eco_runs) v.push_back(s.*field);
      return dgr::bench::median(std::move(v));
    };
    const double eco_s = median_of(&EcoStats::total_seconds);
    const double full_s = dgr::bench::median(full_seconds);
    const double speedup = eco_s > 0.0 ? full_s / eco_s : 0.0;
    if (eco.stats.dirty_fraction <= 0.10 + 1e-9) {
      worst_small_speedup = std::min(worst_small_speedup, speedup);
    }
    std::printf("%-8.3f %8.3f %6zu %8zu %10.4f %10.4f %8.1fx\n", target,
                eco.stats.dirty_fraction, eco.stats.seed_dirty, eco.stats.closure_dirty,
                eco_s, full_s, speedup);

    char case_name[64];
    std::snprintf(case_name, sizeof(case_name), "dirty_%.0f_pct", target * 100);
    emitter.add_row(case_name)
        .metric("target_dirty_fraction", target)
        .metric("dirty_fraction", eco.stats.dirty_fraction)
        .metric("seed_dirty", static_cast<double>(eco.stats.seed_dirty))
        .metric("closure_nets", static_cast<double>(eco.stats.closure_dirty))
        .metric("routable_nets", static_cast<double>(eco.stats.routable_nets))
        .metric("closure_rounds", eco.stats.closure_rounds)
        .metric("eco_seconds", eco_s)
        .metric("full_seconds", full_s)
        .metric("speedup", speedup)
        .metric("eco_wirelength", static_cast<double>(eco.metrics.wirelength))
        .metric("full_wirelength", static_cast<double>(full.metrics.wirelength))
        .metric("eco_overflow", eco.metrics.total_overflow)
        .metric("full_overflow", full.metrics.total_overflow)
        .stage("closure", median_of(&EcoStats::closure_seconds))
        .stage("delta_route", median_of(&EcoStats::route_seconds))
        .stage("merge_validate", median_of(&EcoStats::merge_seconds))
        .note("mutation", mutation)
        .note("validation",
              eco.validation.status.ok() ? "ok" : eco.validation.status.message());
  }

  if (worst_small_speedup > 1e29) worst_small_speedup = 0.0;  // no row qualified
  emitter.summary("min_speedup_at_le_10pct_actual_dirty", worst_small_speedup);
  if (!emitter.write()) {
    std::fprintf(stderr, "failed to write %s\n", emitter.default_path().c_str());
    return 1;
  }
  std::printf("\nmin speedup at <=10%% actual dirty: %.1fx (acceptance floor 5x)\n",
              worst_small_speedup);
  return worst_small_speedup >= 5.0 ? 0 : 2;
}
