// Figure 5: runtime and memory scalability vs number of nets.
//
//   5a: DGR solver runtime (excluding DAG-forest construction, per the
//       paper's footnote 3) against CUGR2-lite runtime, over a net-count
//       sweep at fixed routing density. The solve is timed at 1 and at 4
//       pool workers (median of kPairs alternating runs each), which shows
//       where the pool starts to pay next to core::kPooledPathCandidates:
//       below it the solver runs its kernels inline at any worker count.
//   5b: peak memory vs #nets — peak process RSS ("CPU memory") and the
//       solver-owned bytes (forest + relaxation + tape, the "GPU memory"
//       proxy: exactly the tensors PyTorch would keep on-device).

#include "bench_common.hpp"

namespace {

/// Alternating 1-worker / 4-worker solves per point.
constexpr int kPairs = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  using namespace dgr;
  bench::begin_bench("Figure 5 — runtime and memory vs # nets",
                     "DGR paper Fig. 5a/5b (DAC'24); CPU substrate, see EXPERIMENTS.md");

  const double scale = bench::bench_scale();
  // Keep per-point iteration count moderate: the runtime *trend* is what the
  // figure shows, and it is linear in iterations anyway.
  const int iters = std::max(50, bench::dgr_iterations() / 5);

  std::vector<int> net_counts;
  for (int n : {500, 1000, 2000, 4000, 8000, 16000}) {
    net_counts.push_back(std::max(100, static_cast<int>(n * scale)));
  }

  eval::TablePrinter table({"# nets", "grid", "path candidates", "forest build (s)",
                            "DGR solve 1w (s)", "DGR solve 4w (s)", "4w speed-up",
                            "CUGR2-lite (s)", "peak RSS (MB)", "solver bytes (MB)"});
  obs::BenchEmitter emitter = bench::make_emitter(
      "fig5_scalability", "DGR paper Fig. 5a/5b (DAC'24); CPU substrate");
  emitter.set_config("iterations_per_point", iters);
  emitter.set_config("pooled_path_candidates", static_cast<double>(core::kPooledPathCandidates));

  for (const int nets : net_counts) {
    design::IspdLikeParams p;
    p.name = "sweep";
    // Grid grows with sqrt(#nets) to hold routing density constant.
    const int g = std::max(16, static_cast<int>(std::sqrt(nets) * 1.6));
    p.grid_w = p.grid_h = g;
    p.num_nets = nets;
    p.layers = 5;
    p.tracks_per_layer = 3;
    const design::Design d = design::generate_ispd_like(p, 5050);
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    const pipeline::StagePlan route_only{.maze_refine = false, .layer_assign = false};

    // Per-stage RouterStats give the figure's series directly: "forest" is
    // construction (excluded from DGR runtime per footnote 3, and cached by
    // the context after the first run), "train" + "extract" is the solver
    // curve, solver_bytes the "GPU memory" proxy. Routes are bitwise equal
    // at every worker count.
    double build_s = 0.0;
    double candidates = 0.0;
    double solver_mb = 0.0;
    std::vector<double> solve_1w, solve_4w;
    for (int pair = 0; pair < kPairs; ++pair) {
      for (const std::size_t workers : {std::size_t{4}, std::size_t{1}}) {
        util::set_worker_count(workers);
        const pipeline::PipelineResult dgr_run =
            pipe.run("dgr", bench::dgr_router_options(iters), route_only);
        if (pair == 0 && workers == 4) {
          build_s = dgr_run.stats.stage_seconds("forest");
          candidates = dgr_run.stats.counter("path_candidates");
          solver_mb = static_cast<double>(dgr_run.stats.solver_bytes) / 1e6;
        }
        (workers == 1 ? solve_1w : solve_4w).push_back(bench::dgr_solve_seconds(dgr_run.stats));
      }
    }
    util::set_worker_count(0);
    const double solve_1 = median(solve_1w);
    const double solve_4 = median(solve_4w);
    const bool inline_kernels = candidates < static_cast<double>(core::kPooledPathCandidates);

    const pipeline::PipelineResult base = pipe.run("cugr2-lite", {}, route_only);
    const double base_s = base.stats.stage_seconds("route_total");
    const double rss_mb = static_cast<double>(base.stats.peak_rss_bytes) / 1e6;

    table.add_row({eval::fmt_int(nets), std::to_string(g) + "x" + std::to_string(g),
                   eval::fmt_int(static_cast<std::int64_t>(candidates)) +
                       (inline_kernels ? " (inline)" : ""),
                   eval::fmt_double(build_s, 3), eval::fmt_double(solve_1, 3),
                   eval::fmt_double(solve_4, 3), eval::fmt_double(solve_1 / solve_4, 2),
                   eval::fmt_double(base_s, 3), eval::fmt_double(rss_mb, 1),
                   eval::fmt_double(solver_mb, 1)});

    emitter.add_row("n" + std::to_string(nets))
        .metric("nets", nets)
        .metric("grid", g)
        .metric("path_candidates", candidates)
        .metric("forest_build_seconds", build_s)
        .metric("dgr_solve_seconds_1w", solve_1)
        .metric("dgr_solve_seconds_4w", solve_4)
        .metric("cugr2_seconds", base_s)
        .metric("peak_rss_mb", rss_mb)
        .metric("solver_mb", solver_mb);
  }
  emitter.write();

  table.print(std::cout);
  std::cout << "\nPaper claims to check (5a): DGR runtime grows roughly linearly in\n"
            << "#nets and the DGR/CUGR2 gap narrows as designs grow (CUGR2's RRR\n"
            << "blows up on congestion; DGR's per-iteration cost is linear).\n"
            << "(5b): both memory series are ~linear in #nets.\n"
            << "DGR solve time excludes DAG-forest construction (paper footnote 3).\n"
            << "Designs under " << core::kPooledPathCandidates
            << " path candidates (inline) run every solver kernel on the calling\n"
            << "thread at any worker count, so their 1w and 4w solves differ by noise.\n";
  return 0;
}
