// Partition scaling harness: worker x partition sweep on the Table 3
// ispd18-like series.
//
// For each design, routes a sequential baseline (the region router on the
// whole grid, one worker) and then the "partitioned" engine at every
// combination of worker count {1,2,4} and partition count {2,4}. Each
// cell's route time is the median of kRepetitions runs. Emits
// BENCH_partition.json via the dgr-bench-v1 emitter.
//
// Two speedups, kept apart because they have different causes:
//   decomposition_speedup  sequential route time / partitioned route time.
//       It comes mostly from routing smaller rip-up-and-reroute
//       subproblems, not from threads (EXPERIMENTS.md).
//   parallel_speedup_geomean_p4  geomean over designs of
//       route_s(w1p4) / route_s(w4p4), the thread-scaling figure.
// Quality is the eval-cost delta vs sequential (wirelength + bend/via
// proxy + overflow penalty).
//
// The partitioned runs are bitwise deterministic per partition count, so
// the worker axis changes wall time only — quality deltas are a function
// of the partition count alone (the harness checks this, over workers and
// repetitions).
//
// Exit gates: decomposition speedup >= 1.5x (geomean at 4 workers / 4
// partitions), eval-cost degradation <= 2% of sequential, and
// worker-invariant quality.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_suite/stats.hpp"

namespace {

constexpr const char* kRegionRouter = "cugr2-lite";
constexpr int kRepetitions = 3;

/// Scalar quality figure: wirelength plus the bend-based via proxy and a
/// stiff overflow penalty, mirroring the weighted objective the routers
/// optimise. Lower is better.
double eval_cost(const dgr::eval::Metrics& m) {
  return static_cast<double>(m.wirelength) + 0.5 * static_cast<double>(m.bends) +
         50.0 * m.total_overflow;
}

struct RunPoint {
  double route_seconds = 0.0;  ///< median over the repetitions
  double cost = 0.0;
  dgr::eval::Metrics metrics;
  bool repeatable = true;  ///< every repetition had the same cost
};

/// Routes `d` kRepetitions times with the current worker count.
RunPoint route_median(const dgr::design::Design& d, const std::string& router,
                      const dgr::pipeline::RouterOptions& options) {
  RunPoint pt;
  std::vector<double> seconds;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    dgr::pipeline::RoutingContext ctx(d);
    dgr::pipeline::Pipeline pipe(ctx);
    const dgr::pipeline::PipelineResult r =
        pipe.run(router, options, dgr::pipeline::StagePlan{.layer_assign = false});
    seconds.push_back(r.stats.stage_seconds("route_total"));
    if (rep > 0 && eval_cost(r.metrics) != pt.cost) pt.repeatable = false;
    pt.metrics = r.metrics;
    pt.cost = eval_cost(r.metrics);
  }
  pt.route_seconds = dgr::bench::median(std::move(seconds));
  return pt;
}

}  // namespace

int main() {
  using namespace dgr;
  bench::begin_bench("Partition scaling",
                     "dgr::partition worker x partition sweep, "
                     "Table 3 ispd18-like series");

  obs::BenchEmitter emitter = bench::make_emitter(
      "partition", "dgr::partition scaling sweep on the Table 3 ispd18-like series");
  emitter.set_config("region_router", kRegionRouter);
  emitter.set_config("repetitions", kRepetitions);

  // The middle of the Table 3 ladder: big enough that full-grid maze
  // escapes dominate the sequential route, small enough for CI.
  auto presets = design::table3_presets(bench::bench_scale());
  presets.erase(presets.begin(), presets.begin() + 3);  // keep test4..test7
  presets.resize(4);
  for (auto& p : presets) {
    p.hotspot_affinity = std::min(0.85, p.hotspot_affinity + 0.30);
  }

  const std::size_t workers[] = {1, 2, 4};
  const int partitions[] = {2, 4};

  eval::TablePrinter table(
      {"benchmark", "workers", "parts", "route_s", "decomp speedup", "cost delta"});

  double speedup_4w4p_sum = 0.0;  // log-space for the geometric means
  double parallel_p4_sum = 0.0;
  double worst_delta_4w4p = 0.0;
  int anchor_rows = 0;
  bool worker_invariant = true;

  for (const auto& preset : presets) {
    const design::Design d = design::generate_ispd_like(preset, /*seed=*/1818);

    // Sequential baseline: the region router on the whole grid, one worker.
    util::set_worker_count(1);
    const RunPoint seq = route_median(d, kRegionRouter, {});
    worker_invariant = worker_invariant && seq.repeatable;
    table.add_row({preset.name, "1", "1", eval::fmt_double(seq.route_seconds, 3),
                   "1.00x", "0.00%"});
    emitter.add_row(preset.name + "/w1p1")
        .metric("workers", 1.0)
        .metric("partitions", 1.0)
        .metric("route_seconds", seq.route_seconds)
        .metric("decomposition_speedup", 1.0)
        .metric("eval_cost", seq.cost)
        .metric("eval_cost_delta_pct", 0.0)
        .metric("wirelength", static_cast<double>(seq.metrics.wirelength))
        .metric("total_overflow", seq.metrics.total_overflow)
        .note("role", "sequential baseline");

    // Quality per partition count must not depend on the worker count
    // (bitwise determinism); remember the first observation to check.
    double cost_at_parts[2] = {-1.0, -1.0};
    double seconds_w1p4 = 0.0;

    for (const int p : partitions) {
      for (const std::size_t w : workers) {
        util::set_worker_count(w);
        pipeline::RouterOptions options;
        options.partition.partitions = p;
        options.partition.region_router = kRegionRouter;
        const RunPoint pt = route_median(d, "partitioned", options);
        worker_invariant = worker_invariant && pt.repeatable;

        const double speedup =
            pt.route_seconds > 0.0 ? seq.route_seconds / pt.route_seconds : 0.0;
        const double delta_pct =
            seq.cost > 0.0 ? (pt.cost - seq.cost) / seq.cost * 100.0 : 0.0;

        const int pi = p == 2 ? 0 : 1;
        if (cost_at_parts[pi] < 0.0) {
          cost_at_parts[pi] = pt.cost;
        } else if (pt.cost != cost_at_parts[pi]) {
          worker_invariant = false;
        }

        if (p == 4 && w == 1) seconds_w1p4 = pt.route_seconds;
        if (p == 4 && w == 4) {
          const double parallel =
              pt.route_seconds > 0.0 ? seconds_w1p4 / pt.route_seconds : 0.0;
          speedup_4w4p_sum += std::log(std::max(speedup, 1e-9));
          parallel_p4_sum += std::log(std::max(parallel, 1e-9));
          // The ceiling bounds *degradation* only — the partitioned engine
          // routinely lands below the sequential cost (its reconcile pass
          // doubles as a refinement round) and that is not a failure.
          worst_delta_4w4p = std::max(worst_delta_4w4p, delta_pct);
          ++anchor_rows;
        }

        char speedup_s[32], delta_s[32];
        std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", speedup);
        std::snprintf(delta_s, sizeof(delta_s), "%+.2f%%", delta_pct);
        table.add_row({preset.name, std::to_string(w), std::to_string(p),
                       eval::fmt_double(pt.route_seconds, 3), speedup_s, delta_s});

        char row_name[96];
        std::snprintf(row_name, sizeof(row_name), "%s/w%zup%d", preset.name.c_str(),
                      w, p);
        emitter.add_row(row_name)
            .metric("workers", static_cast<double>(w))
            .metric("partitions", static_cast<double>(p))
            .metric("route_seconds", pt.route_seconds)
            .metric("decomposition_speedup", speedup)
            .metric("eval_cost", pt.cost)
            .metric("eval_cost_delta_pct", delta_pct)
            .metric("wirelength", static_cast<double>(pt.metrics.wirelength))
            .metric("wirelength_delta_pct",
                    seq.metrics.wirelength > 0
                        ? (static_cast<double>(pt.metrics.wirelength) -
                           static_cast<double>(seq.metrics.wirelength)) /
                              static_cast<double>(seq.metrics.wirelength) * 100.0
                        : 0.0)
            .metric("total_overflow", pt.metrics.total_overflow)
            .stage("route_total", pt.route_seconds);
      }
    }
  }
  util::set_worker_count(0);  // restore the hardware default

  const double geomean_speedup =
      anchor_rows > 0 ? std::exp(speedup_4w4p_sum / anchor_rows) : 0.0;
  const double parallel_speedup =
      anchor_rows > 0 ? std::exp(parallel_p4_sum / anchor_rows) : 0.0;
  emitter.summary("decomposition_speedup_geomean_4w4p", geomean_speedup);
  emitter.summary("parallel_speedup_geomean_p4", parallel_speedup);
  emitter.summary("max_cost_degradation_pct_4w4p", worst_delta_4w4p);
  emitter.summary("worker_invariant_quality", worker_invariant ? 1.0 : 0.0);
  if (!emitter.write()) {
    std::fprintf(stderr, "failed to write %s\n", emitter.default_path().c_str());
    return 1;
  }

  table.print(std::cout);
  std::printf(
      "\n4w/4p geomean decomposition speedup: %.2fx (floor 1.5x)  |  max cost "
      "degradation: %.2f%% (ceiling 2%%)  |  worker-invariant quality: %s\n"
      "p4 geomean parallel speedup, 1 -> 4 workers: %.2fx (measured, not gated)\n",
      geomean_speedup, worst_delta_4w4p, worker_invariant ? "yes" : "NO",
      parallel_speedup);

  const bool pass =
      geomean_speedup >= 1.5 && worst_delta_4w4p <= 2.0 && worker_invariant;
  return pass ? 0 : 2;
}
