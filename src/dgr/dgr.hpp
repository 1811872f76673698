#pragma once
// Umbrella header: the public API of the DGR library.
//
// Typical usage (see examples/quickstart.cpp):
//
//   auto design = dgr::design::generate_ispd_like(params, seed);
//   auto cap    = design.capacities();
//   auto forest = dgr::dag::DagForest::build(design);
//   dgr::core::DgrSolver solver(forest, cap);
//   solver.train();
//   auto solution = solver.extract();
//   auto metrics  = dgr::eval::compute_metrics(solution, cap);

#include "ad/adam.hpp"
#include "ad/gradcheck.hpp"
#include "ad/ops.hpp"
#include "ad/simd.hpp"
#include "ad/tape.hpp"
#include "core/config.hpp"
#include "core/relaxation.hpp"
#include "core/solver.hpp"
#include "dag/forest.hpp"
#include "dag/path.hpp"
#include "dag/tree_candidates.hpp"
#include "design/design.hpp"
#include "design/generator.hpp"
#include "design/io.hpp"
#include "design/mutate.hpp"
#include "eco/eco.hpp"
#include "eval/metrics.hpp"
#include "eval/solution.hpp"
#include "eval/table.hpp"
#include "geom/geom.hpp"
#include "grid/demand_map.hpp"
#include "grid/gcell_grid.hpp"
#include "ilp/branch_bound.hpp"
#include "ilp/routing_ilp.hpp"
#include "ilp/simplex.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "partition/router.hpp"
#include "pipeline/adapters.hpp"
#include "pipeline/context.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/router.hpp"
#include "post/guide.hpp"
#include "post/layer_assign.hpp"
#include "post/maze_refine.hpp"
#include "routers/cugr2lite.hpp"
#include "routers/lagrangian.hpp"
#include "routers/maze.hpp"
#include "routers/sproute_lite.hpp"
#include "rsmt/builder.hpp"
#include "rsmt/exact.hpp"
#include "rsmt/one_steiner.hpp"
#include "rsmt/salt.hpp"
#include "rsmt/steiner_tree.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "util/log.hpp"
#include "util/memprobe.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
