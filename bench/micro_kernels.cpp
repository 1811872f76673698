// Micro-benchmarks (google-benchmark) of the ad:: kernels and of a full DGR
// training iteration — the per-iteration cost that Figure 5a's runtime curve
// is built from. Kernel benches reuse one arena-backed tape across
// iterations (reset() keeps capacity), matching the solver's steady state.
// The custom main() additionally emits BENCH_micro_kernels.json
// (dgr-bench-v1: one row per benchmark with ns/iter) into the working dir.

#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dgr/dgr.hpp"

namespace {

using namespace dgr;

std::vector<float> randu(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_SegmentSoftmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const std::vector<float> x = randu(rng, n);
  std::vector<std::int32_t> offsets;  // groups of 2 (L-shape pairs)
  for (std::size_t i = 0; i <= n; i += 2) offsets.push_back(static_cast<std::int32_t>(i));
  ad::Tape tape;  // reused: the arena reaches its high-water mark once
  for (auto _ : state) {
    tape.reset();
    const ad::NodeId in = tape.input(x);
    benchmark::DoNotOptimize(ad::segment_softmax(tape, in, offsets, 1.0f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

struct SolverFixture {
  std::unique_ptr<design::Design> design;
  std::vector<float> cap;
  std::unique_ptr<dag::DagForest> forest;
  std::unique_ptr<core::DgrSolver> solver;

  explicit SolverFixture(int nets) {
    util::LogSilencer quiet;
    design::IspdLikeParams p;
    p.num_nets = nets;
    const int g = std::max(16, static_cast<int>(std::sqrt(nets) * 1.6));
    p.grid_w = p.grid_h = g;
    p.layers = 5;
    design = std::make_unique<design::Design>(design::generate_ispd_like(p, 9090));
    cap = design->capacities();
    forest = std::make_unique<dag::DagForest>(dag::DagForest::build(*design, {}));
    solver = std::make_unique<core::DgrSolver>(*forest, cap);
  }
};

void BM_DgrTrainStep(benchmark::State& state) {
  SolverFixture fx(static_cast<int>(state.range(0)));
  int iteration = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.solver->train_step(iteration++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.forest->paths().size()));
  state.counters["paths"] = static_cast<double>(fx.forest->paths().size());
}
BENCHMARK(BM_DgrTrainStep)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

/// The fused selection+demand kernel (softmax -> coupling -> scatter) on the
/// real relaxation structure of an ispd-like design, forward+backward on a
/// reused tape. Args: {nets, workers}.
void BM_SelectionDemandKernel(benchmark::State& state) {
  const auto nets = static_cast<int>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  SolverFixture fx(nets);
  util::set_worker_count(workers);
  const core::Relaxation& r = fx.solver->relaxation();
  const std::vector<float>& params = fx.solver->logits();
  const std::size_t np = r.path_count();
  ad::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const ad::NodeId pl = tape.input(params.data(), np);
    const ad::NodeId tl = tape.input(params.data() + np, r.tree_count());
    const ad::FusedSelectionDemand sel = ad::fused_softmax_demand(
        tape, pl, tl, r.path_group_offsets, r.tree_group_offsets, r.path_tree,
        r.tree_path_offsets, r.incidence, 1.0f, nullptr, nullptr);
    tape.backward(ad::combine(
        tape, {ad::weighted_sum(tape, sel.demand), ad::weighted_sum(tape, sel.eff)},
        {1.0f, 1.0f}));
  }
  util::set_worker_count(0);
  state.counters["paths"] = static_cast<double>(np);
}
BENCHMARK(BM_SelectionDemandKernel)->Args({2000, 1})->Args({2000, 4});

/// The fused overflow cost (subtract capacity -> activation -> sum),
/// forward+backward on a reused tape. Args: {n, workers}.
void BM_OverflowKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  util::Rng rng(3);
  const std::vector<float> x0 = randu(rng, n);
  const std::vector<float> cap(n, 0.1f);
  util::set_worker_count(workers);
  ad::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const ad::NodeId x = tape.input(x0);
    tape.backward(ad::fused_overflow_cost(tape, x, cap, ad::Activation::kSigmoid));
  }
  util::set_worker_count(0);
}
BENCHMARK(BM_OverflowKernel)->Args({1 << 14, 1})->Args({1 << 14, 4})->Args({1 << 16, 4});

void BM_ForestBuild(benchmark::State& state) {
  util::LogSilencer quiet;
  design::IspdLikeParams p;
  p.num_nets = static_cast<int>(state.range(0));
  const int g = std::max(16, static_cast<int>(std::sqrt(p.num_nets) * 1.6));
  p.grid_w = p.grid_h = g;
  const design::Design d = design::generate_ispd_like(p, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag::DagForest::build(d, {}));
  }
}
BENCHMARK(BM_ForestBuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ExtractTopP(benchmark::State& state) {
  SolverFixture fx(static_cast<int>(state.range(0)));
  for (int i = 0; i < 20; ++i) fx.solver->train_step(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.solver->extract());
  }
}
BENCHMARK(BM_ExtractTopP)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_RsmtBuilder(benchmark::State& state) {
  util::Rng rng(5);
  const auto pins_count = static_cast<std::size_t>(state.range(0));
  std::vector<geom::Point> pins;
  for (std::size_t i = 0; i < pins_count; ++i) {
    pins.push_back({static_cast<geom::Coord>(rng.uniform_int(0, 200)),
                    static_cast<geom::Coord>(rng.uniform_int(0, 200))});
  }
  const rsmt::RsmtBuilder builder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(pins));
  }
}
BENCHMARK(BM_RsmtBuilder)->Arg(3)->Arg(8)->Arg(16)->Arg(64);

/// Console reporter that also captures (name, ns/iter) for every completed
/// iteration run so main() can dump them as JSON.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      const double ns =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      if (run.run_type == Run::RT_Iteration) {
        set(run.benchmark_name(), ns, /*from_median=*/false);
      } else if (run.aggregate_name == "median") {
        // "<name>_median" -> "<name>"; medians override per-repetition noise.
        std::string name = run.benchmark_name();
        const std::string suffix = "_median";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
          name.resize(name.size() - suffix.size());
        }
        set(name, ns, /*from_median=*/true);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<std::pair<std::string, double>>& results() const { return results_; }

 private:
  void set(const std::string& name, double ns, bool from_median) {
    for (auto& [n, v] : results_) {
      if (n == name) {
        if (from_median) v = ns;
        return;
      }
    }
    results_.emplace_back(name, ns);
  }

  std::vector<std::pair<std::string, double>> results_;
};

void write_json(const std::vector<std::pair<std::string, double>>& results,
                const char* path) {
  obs::BenchEmitter emitter("micro_kernels",
                            "per-iteration kernel costs behind Fig. 5a (DAC'24)");
  for (const auto& [name, ns] : results) {
    emitter.add_row(name).metric("ns_per_iter", ns);
  }
  emitter.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_json(reporter.results(), "BENCH_micro_kernels.json");
  benchmark::Shutdown();
  return 0;
}
