// Design I/O tool: a small CLI around the .dgrd text format.
//
//   example_design_io_tool gen <out.dgrd> [nets] [grid] [seed]
//       generate an ISPD-like synthetic design and save it
//   example_design_io_tool route <in.dgrd> [iterations] [guides.out]
//       load a design, run the full DGR pipeline, print metrics, and
//       optionally dump ISPD-style routing guides
//   example_design_io_tool info <in.dgrd>
//       print design statistics
//
// The format is documented in src/design/io.hpp; saved designs make
// experiments replayable without regenerating (and are diff-friendly).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>

#include "dgr/dgr.hpp"

namespace {

using namespace dgr;

/// Reads the design at `path`; on failure prints the typed status.
std::optional<design::Design> load(const char* path) {
  Result<design::Design> loaded = design::try_read_design_file(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return std::nullopt;
  }
  return loaded.take();
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: design_io_tool gen <out.dgrd> [nets] [grid] [seed]\n");
    return 2;
  }
  design::IspdLikeParams params;
  params.name = "generated";
  params.num_nets = argc > 3 ? std::atoi(argv[3]) : 1000;
  params.grid_w = params.grid_h = argc > 4 ? std::atoi(argv[4]) : 32;
  params.layers = 5;
  const std::uint64_t seed =
      argc > 5 ? static_cast<std::uint64_t>(std::atoll(argv[5])) : 1;
  const design::Design d = design::generate_ispd_like(params, seed);
  design::write_design_file(argv[2], d);
  std::printf("wrote %s: %zu nets on %dx%dx%d\n", argv[2], d.net_count(),
              d.grid().width(), d.grid().height(), d.grid().layer_count());
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: design_io_tool info <in.dgrd>\n");
    return 2;
  }
  const std::optional<design::Design> loaded = load(argv[2]);
  if (!loaded) return 1;
  const design::Design& d = *loaded;
  std::printf("design  : %s\n", d.name().c_str());
  std::printf("grid    : %dx%d, %d layers\n", d.grid().width(), d.grid().height(),
              d.grid().layer_count());
  std::printf("nets    : %zu (%zu routable, %zu local)\n", d.net_count(),
              d.routable_nets().size(), d.local_net_count());
  std::printf("HPWL    : %lld\n", static_cast<long long>(d.total_hpwl()));
  std::size_t max_pins = 0;
  double avg_pins = 0.0;
  for (const design::Net& n : d.nets()) {
    max_pins = std::max(max_pins, n.pins.size());
    avg_pins += static_cast<double>(n.pins.size());
  }
  std::printf("pins/net: avg %.2f, max %zu\n", avg_pins / static_cast<double>(d.net_count()),
              max_pins);
  return 0;
}

int cmd_route(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: design_io_tool route <in.dgrd> [iterations]\n");
    return 2;
  }
  const std::optional<design::Design> loaded = load(argv[2]);
  if (!loaded) return 1;
  const design::Design& d = *loaded;
  const int iters = argc > 3 ? std::atoi(argv[3]) : 500;
  const std::vector<float> cap = d.capacities();

  util::Timer timer;
  const dag::DagForest forest = dag::DagForest::build(d);
  core::DgrConfig config;
  config.iterations = iters;
  config.temperature_interval = std::max(1, iters / 10);
  core::DgrSolver solver(forest, cap, config);
  solver.train();
  eval::RouteSolution sol = solver.extract();
  post::maze_refine(sol, cap);
  const post::LayerAssignment la = post::assign_layers(sol, cap);
  const eval::Metrics m = eval::compute_metrics(sol, cap);

  std::printf("routed %s in %.2fs (%d iterations)\n", argv[2], timer.seconds(), iters);
  std::printf("  overflowed edges : %lld\n", static_cast<long long>(m.overflow_edges));
  std::printf("  total overflow   : %.2f\n", m.total_overflow);
  std::printf("  wirelength       : %lld\n", static_cast<long long>(m.wirelength));
  std::printf("  vias             : %lld\n", static_cast<long long>(la.via_count));
  std::printf("  connected        : %s\n", sol.connects_all_pins() ? "yes" : "NO");

  if (argc > 4) {
    const post::RouteGuides guides = post::make_guides(sol, la);
    std::ofstream os(argv[4]);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", argv[4]);
      return 1;
    }
    post::write_guides(os, guides, d);
    std::printf("  guides           : %zu boxes -> %s (covering: %s)\n",
                guides.box_count(), argv[4],
                post::guides_cover_solution(guides, sol, la) ? "yes" : "NO");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgr;
  util::set_log_level(util::LogLevel::kWarn);
  if (argc < 2) {
    std::fprintf(stderr, "usage: design_io_tool <gen|info|route> ...\n");
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "info") == 0) return cmd_info(argc, argv);
    if (std::strcmp(argv[1], "route") == 0) return cmd_route(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 2;
}
