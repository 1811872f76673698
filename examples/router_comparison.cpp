// Router comparison: runs every global router registered in the pipeline
// registry — DGR and the three baseline families (CUGR2-lite, SPRoute-lite,
// Lagrangian) — on the same generated design through the same Pipeline and
// prints a side-by-side quality/runtime table.
//
// Usage: example_router_comparison [num_nets] [grid] [seed]
//                                  [--trace <file>] [--metrics <file>]
//                                  [--partitions N]
//
// --trace writes a Chrome trace_event JSON of the whole comparison (open in
// chrome://tracing or https://ui.perfetto.dev); --metrics writes the obs
// metrics-registry snapshot. Both also enable solver convergence telemetry.
// --partitions N configures the "partitioned" row's region count (its other
// rows stay sequential, so the table doubles as a partition-quality check).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "dgr/dgr.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  util::set_log_level(util::LogLevel::kWarn);

  std::string trace_path;
  std::string metrics_path;
  int partitions = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = std::atoi(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }

  const int nets = positional.size() > 0 ? std::atoi(positional[0]) : 800;
  const int grid = positional.size() > 1 ? std::atoi(positional[1]) : 28;
  const std::uint64_t seed =
      positional.size() > 2 ? static_cast<std::uint64_t>(std::atoll(positional[2])) : 7;

  const bool observing = !trace_path.empty() || !metrics_path.empty();
  if (!trace_path.empty()) {
    if (!obs::compiled_in()) {
      std::fprintf(stderr, "warning: built with DGR_OBS=OFF; trace will be empty\n");
    }
    obs::reset_trace();
    obs::set_tracing(true);
  }
  if (observing) obs::metrics().reset();

  design::IspdLikeParams params;
  params.name = "compare";
  params.grid_w = params.grid_h = grid;
  params.num_nets = nets;
  params.layers = 5;
  params.tracks_per_layer = 3;
  params.hotspot_affinity = 0.55;
  const design::Design design = design::generate_ispd_like(params, seed);

  pipeline::RoutingContext ctx(design);
  pipeline::Pipeline pipe(ctx);

  std::printf("design: %d nets on %dx%d, 5 layers (seed %llu)\n\n", nets, grid, grid,
              static_cast<unsigned long long>(seed));

  eval::TablePrinter table(
      {"router", "ovf edges", "total ovf", "WL", "vias", "time (s)"});

  pipeline::RouterOptions options;
  options.dgr.iterations = 600;
  options.dgr.temperature_interval = 60;
  // With observation on, also capture the per-iteration convergence series
  // (it rides along in RouterStats and as dgr.* trace counters).
  options.dgr.record_telemetry = observing;
  if (partitions > 0) options.partition.partitions = partitions;

  for (const std::string& name : pipeline::registered_routers()) {
    const auto router = pipeline::make_router(name, options);
    // DGR is the only router the paper pairs with maze refinement.
    const pipeline::StagePlan plan{.maze_refine = name == "dgr", .layer_assign = true};
    const pipeline::PipelineResult r = pipe.run(*router, plan);
    const double secs = r.stats.stage_seconds("route_total") +
                        r.stats.stage_seconds("maze_refine");
    table.add_row({name, eval::fmt_int(r.metrics.overflow_edges),
                   eval::fmt_double(r.metrics.total_overflow, 1),
                   eval::fmt_int(r.metrics.wirelength),
                   eval::fmt_int(r.layers.via_count), eval::fmt_double(secs, 2)});
  }

  table.print(std::cout);

  if (!trace_path.empty()) {
    obs::set_tracing(false);
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("\ntrace: %s (%zu events; open in chrome://tracing)\n",
                  trace_path.c_str(), obs::trace_event_count());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    if (obs::metrics().write_snapshot(metrics_path)) {
      std::printf("metrics: %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
