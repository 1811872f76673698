// Ablation bench (beyond the paper's tables): isolates the contribution of
// each DGR design choice on one congested case, generated from each of four
// fixed seeds:
//   - Gumbel noise vs plain softmax                       (Section 4.4)
//   - temperature annealing on vs off                     (Section 4.4)
//   - top-p extraction vs pure argmax                     (Section 4.5)
//   - single tree candidate vs congestion-shifted forest  (Section 4.2)
//   - L-only vs L+Z path candidates                       (Section 3.1)
//   - maze-routing post refinement on vs off              (Section 4.6)

#include "bench_common.hpp"

namespace {

using namespace dgr;

struct Variant {
  std::string name;
  core::DgrConfig config;
  dag::ForestOptions forest;
  bool refine = true;
};

}  // namespace

int main() {
  using namespace dgr;
  bench::begin_bench("Ablation — DGR design choices",
                     "ablation of DGR paper Sections 3.1/4.2/4.4-4.6 (not a paper table)");

  const int iters = std::max(100, bench::dgr_iterations() / 2);
  auto presets = design::table2_presets(bench::bench_scale());
  const auto& preset = presets[0];  // ispd18_5m-like congested case
  constexpr std::uint64_t kSeeds[] = {707, 1, 2, 3};

  core::DgrConfig base;
  base.iterations = iters;
  base.temperature_interval = std::max(1, iters / 10);
  base.patience_checks = 0;  // the paper's fixed schedule

  std::vector<Variant> variants;
  variants.push_back({"full DGR (baseline)", base, {}, true});
  {
    Variant v{"no Gumbel noise", base, {}, true};
    v.config.use_gumbel = false;
    variants.push_back(v);
  }
  {
    Variant v{"no temperature annealing", base, {}, true};
    v.config.temperature_decay = 1.0f;
    variants.push_back(v);
  }
  {
    Variant v{"argmax extraction (no top-p)", base, {}, true};
    v.config.top_p = 0.0f;
    variants.push_back(v);
  }
  {
    Variant v{"single tree candidate", base, {}, true};
    v.forest.tree.congestion_shifted = false;
    variants.push_back(v);
  }
  {
    Variant v{"3 tree candidates (trunk on)", base, {}, true};
    v.forest.tree.trunk_topology = true;
    variants.push_back(v);
  }
  {
    Variant v{"L+Z path candidates (z=2)", base, {}, true};
    v.forest.paths.z_samples = 2;
    variants.push_back(v);
  }
  {
    Variant v{"adaptive expansion (Sec. 3.1 future work)", base, {}, true};
    v.forest.adaptive_expansion = true;
    variants.push_back(v);
  }
  {
    Variant v{"+ SALT tree candidates (eps=0.5)", base, {}, true};
    v.forest.tree.salt_topology = true;
    variants.push_back(v);
  }
  {
    Variant v{"+ C-shape detours (c=1, d=2)", base, {}, true};
    v.forest.paths.c_samples = 1;
    v.forest.paths.c_detour = 2;
    variants.push_back(v);
  }
  {
    Variant v{"no maze refinement", base, {}, false};
    variants.push_back(v);
  }

  eval::TablePrinter table({"seed", "variant", "paths", "ovf edges", "total ovf", "WL",
                            "vias", "solve (s)"});
  obs::BenchEmitter emitter = bench::make_emitter(
      "ablation_dgr", "ablation of DGR paper Sections 3.1/4.2/4.4-4.6");
  emitter.set_config("case", preset.name);

  for (const std::uint64_t seed : kSeeds) {
    const design::Design d = design::generate_ispd_like(preset, seed);
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    for (const Variant& v : variants) {
      pipeline::RouterOptions ro;
      ro.dgr = v.config;
      ro.forest = v.forest;
      const pipeline::PipelineResult r = pipe.run(
          "dgr", ro, pipeline::StagePlan{.maze_refine = v.refine, .layer_assign = true});
      const double secs = bench::dgr_solve_seconds(r.stats) +
                          r.stats.stage_seconds("maze_refine");
      table.add_row({std::to_string(seed), v.name,
                     eval::fmt_int(static_cast<std::int64_t>(
                         r.stats.counter("path_candidates"))),
                     eval::fmt_int(r.metrics.overflow_edges),
                     eval::fmt_double(r.metrics.total_overflow, 1),
                     eval::fmt_int(r.metrics.wirelength),
                     eval::fmt_int(r.layers.via_count), eval::fmt_double(secs, 2)});

      emitter.add_row(v.name + " @ seed " + std::to_string(seed))
          .metric("seed", static_cast<double>(seed))
          .metric("path_candidates", r.stats.counter("path_candidates"))
          .metric("ovf_edges", r.metrics.overflow_edges)
          .metric("total_overflow", r.metrics.total_overflow)
          .metric("wirelength", static_cast<double>(r.metrics.wirelength))
          .metric("vias", static_cast<double>(r.layers.via_count))
          .metric("solve_seconds", secs)
          .stages(bench::stage_pairs(r.stats));
    }
  }
  emitter.write();

  table.print(std::cout);
  std::cout << "\nReading guide: each row flips one design choice of DGR on the design\n"
            << "generated from its seed; compare rows against the baseline of the same seed.\n";
  return 0;
}
