// Table 2: DGR vs CUGR2(-lite) on the congested 5-layer ispd19-like cases.
//
// Columns per the paper: # g-cell edges with overflow (after 2D global
// routing), total wirelength, and # vias (after DP layer assignment).
// The "Ratio" row is sum(baseline)/sum(DGR) per metric, like the paper.
// Beyond the paper: total overflow Σ max(0, d - cap) for both routers, so
// a router that trades many small overflows for a few large ones shows.

#include "bench_common.hpp"

int main() {
  using namespace dgr;
  bench::begin_bench(
      "Table 2 — comparison with CUGR2-lite on congested 5-layer cases",
      "DGR paper Table 2 (DAC'24); generated ispd-like cases, see EXPERIMENTS.md");

  const int iters = bench::dgr_iterations();
  const auto presets = design::table2_presets(bench::bench_scale());

  eval::TablePrinter table({"Benchmark", "Net #", "Grid", "ovf CUGR2", "ovf DGR",
                            "total ovf CUGR2", "total ovf DGR", "WL CUGR2", "WL DGR",
                            "Vias CUGR2", "Vias DGR"});
  obs::BenchEmitter emitter = bench::make_emitter(
      "table2_cugr2", "DGR paper Table 2 (DAC'24); generated ispd-like cases");

  double sum_ovf[2] = {0, 0}, sum_total_ovf[2] = {0, 0}, sum_wl[2] = {0, 0},
         sum_via[2] = {0, 0};

  for (const auto& preset : presets) {
    const design::Design d = design::generate_ispd_like(preset, /*seed=*/404);
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);

    // Baseline: sequential DP pattern router + RRR (CUGR2 family).
    const pipeline::PipelineResult base = pipe.run("cugr2-lite");

    // DGR: concurrent differentiable optimisation + maze refinement.
    const pipeline::PipelineResult dgr_run =
        pipe.run("dgr", bench::dgr_router_options(iters),
                 pipeline::StagePlan{.maze_refine = true, .layer_assign = true});

    sum_ovf[0] += static_cast<double>(base.metrics.overflow_edges);
    sum_ovf[1] += static_cast<double>(dgr_run.metrics.overflow_edges);
    sum_total_ovf[0] += base.metrics.total_overflow;
    sum_total_ovf[1] += dgr_run.metrics.total_overflow;
    sum_wl[0] += static_cast<double>(base.metrics.wirelength);
    sum_wl[1] += static_cast<double>(dgr_run.metrics.wirelength);
    sum_via[0] += static_cast<double>(base.layers.via_count);
    sum_via[1] += static_cast<double>(dgr_run.layers.via_count);

    table.add_row({preset.name, eval::fmt_int(preset.num_nets),
                   std::to_string(d.grid().width()) + "x" + std::to_string(d.grid().height()),
                   eval::fmt_int(base.metrics.overflow_edges),
                   eval::fmt_int(dgr_run.metrics.overflow_edges),
                   eval::fmt_double(base.metrics.total_overflow, 1),
                   eval::fmt_double(dgr_run.metrics.total_overflow, 1),
                   eval::fmt_int(base.metrics.wirelength),
                   eval::fmt_int(dgr_run.metrics.wirelength),
                   eval::fmt_int(base.layers.via_count),
                   eval::fmt_int(dgr_run.layers.via_count)});

    emitter.add_row(preset.name)
        .metric("nets", preset.num_nets)
        .metric("ovf_edges_cugr2", base.metrics.overflow_edges)
        .metric("ovf_edges_dgr", dgr_run.metrics.overflow_edges)
        .metric("total_overflow_cugr2", base.metrics.total_overflow)
        .metric("total_overflow_dgr", dgr_run.metrics.total_overflow)
        .metric("wirelength_cugr2", static_cast<double>(base.metrics.wirelength))
        .metric("wirelength_dgr", static_cast<double>(dgr_run.metrics.wirelength))
        .metric("vias_cugr2", static_cast<double>(base.layers.via_count))
        .metric("vias_dgr", static_cast<double>(dgr_run.layers.via_count))
        .stages(bench::stage_pairs(dgr_run.stats));
  }

  table.add_separator();
  auto ratio = [](double a, double b) {
    return b > 0.0 ? eval::fmt_ratio(a / b) : std::string("-");
  };
  table.add_row({"Ratio (base/DGR)", "", "", ratio(sum_ovf[0], sum_ovf[1]), "1.0000",
                 ratio(sum_total_ovf[0], sum_total_ovf[1]), "1.0000",
                 ratio(sum_wl[0], sum_wl[1]), "1.0000", ratio(sum_via[0], sum_via[1]),
                 "1.0000"});
  auto emit_ratio = [&](const char* name, double a, double b) {
    if (b > 0.0) emitter.summary(name, a / b);
  };
  emit_ratio("overflow_edge_ratio", sum_ovf[0], sum_ovf[1]);
  emit_ratio("total_overflow_ratio", sum_total_ovf[0], sum_total_ovf[1]);
  emit_ratio("wirelength_ratio", sum_wl[0], sum_wl[1]);
  emit_ratio("via_ratio", sum_via[0], sum_via[1]);
  emitter.write();

  table.print(std::cout);
  std::cout << "\nPaper claim to check: the overflow-edge ratio is > 1 (paper: 1.2391)\n"
            << "with wirelength and via ratios slightly > 1 (paper: 1.0095 / 1.0128).\n"
            << "Total overflow is beyond the paper: a ratio < 1 beside an edge ratio > 1\n"
            << "means DGR concentrates its overflow on fewer edges.\n";
  return 0;
}
