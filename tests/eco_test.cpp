// ECO suite (ctest -L eco): the differential-equivalence harness for
// dgr::eco. For every scratch-capable registered router and a seeded matrix
// of mutation sequences, the incremental re-route must (a) agree with a
// from-scratch route of the mutated design on the shared-eval metrics
// within tolerance, (b) pass the validation gate, and (c) replay
// bit-for-bit across worker counts {1,2,4}. Also locks down the mutation
// generators, the affected-net closure, the dirty-fraction fallback, the
// exact DemandMap rip-up round-trip, and clean rollback at the eco.closure
// / eco.recommit fault sites.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "design/generator.hpp"
#include "design/mutate.hpp"
#include "eco/eco.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/validate.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dgr {
namespace {

using design::DesignState;
using design::Mutation;
using design::MutationKind;
using design::MutationParams;
using eco::EcoEngine;
using eco::EcoOptions;
using eco::EcoResult;

design::Design eco_base_design(std::uint64_t seed = 11) {
  design::IspdLikeParams p;
  p.name = "eco_small";
  p.grid_w = p.grid_h = 16;
  p.num_nets = 120;
  p.layers = 5;
  p.tracks_per_layer = 4;
  return design::generate_ispd_like(p, seed);
}

EcoOptions eco_options(const std::string& router) {
  EcoOptions o;
  o.router = router;
  o.router_options.dgr.iterations = 80;
  o.router_options.dgr.temperature_interval = 20;
  return o;
}

/// Canonical byte representation of a solution's geometry; bitwise
/// determinism asserts compare these strings.
std::string serialize(const eval::RouteSolution& sol) {
  std::ostringstream os;
  for (const eval::NetRoute& net : sol.nets) {
    os << net.design_net << ":";
    for (const dag::PatternPath& path : net.paths) {
      for (const geom::Point& p : path.waypoints) os << p.x << "," << p.y << ";";
      os << "|";
    }
    os << "\n";
  }
  return os.str();
}

std::string serialize_state(const DesignState& s) {
  std::ostringstream os;
  os << s.design.name() << " nets=" << s.design.net_count() << "\n";
  for (const design::Net& n : s.design.nets()) {
    os << n.name << ":";
    for (const geom::Point& p : n.pins) os << p.x << "," << p.y << ";";
    os << "\n";
  }
  for (const design::Blockage& b : s.blockages) {
    os << "blk " << b.rect.lo.x << " " << b.rect.lo.y << " " << b.rect.hi.x << " "
       << b.rect.hi.y << " " << b.scale << "\n";
  }
  for (const int c : s.net_class) os << c << " ";
  os << "\n";
  for (const float w : s.class_weight) os << w << " ";
  return os.str();
}

/// The seeded mutation matrix every differential test replays: one of each
/// workload shape (moving obstacle, pin churn, netlist churn, priority
/// churn), all drawn deterministically from (state, seed).
std::vector<Mutation> mutation_matrix(const DesignState& state, std::uint64_t seed) {
  MutationParams params;
  util::Rng rng(seed);
  std::vector<Mutation> out;
  out.push_back(design::make_blockage_walk_step(state, params, seed, 0));
  out.push_back(design::make_move_pins(state, params, rng));
  out.push_back(design::make_add_nets(state, params, rng));
  out.push_back(design::make_reweight_class(state, params, rng));
  return out;
}

#define SKIP_WITHOUT_HOOKS()                                \
  if (!util::fault::compiled_in()) {                        \
    GTEST_SKIP() << "built with -DDGR_FAULT_INJECTION=OFF"; \
  }

// ---------------------------------------------------------------------------
// Mutation model
// ---------------------------------------------------------------------------

TEST(EcoMutate, GeneratorsAreSeedDeterministic) {
  const DesignState state = design::make_design_state(eco_base_design(), 3);
  MutationParams params;
  auto draw = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    std::ostringstream os;
    for (int i = 0; i < 16; ++i) {
      DesignState scratch = state;  // generators are pure in the state
      const Mutation m = design::generate_mutation(scratch, params, rng);
      os << m.label << "/" << static_cast<int>(m.kind) << " ";
    }
    return os.str();
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

TEST(EcoMutate, ApplyTracksIndicesAcrossRemoval) {
  DesignState state = design::make_design_state(eco_base_design(), 3);
  const std::size_t before = state.design.net_count();
  Mutation m;
  m.kind = MutationKind::kRemoveNets;
  m.nets = {2, 5};
  Result<design::MutationEffect> r = design::apply_mutation(state, m);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const design::MutationEffect effect = r.take();
  EXPECT_EQ(state.design.net_count(), before - 2);
  EXPECT_EQ(effect.old_to_new[2], -1);
  EXPECT_EQ(effect.old_to_new[5], -1);
  EXPECT_EQ(effect.old_to_new[1], 1);
  EXPECT_EQ(effect.old_to_new[3], 2);   // shifted past the hole at 2
  EXPECT_EQ(effect.old_to_new[6], 4);   // shifted past both holes
  EXPECT_TRUE(effect.dirty.empty());    // removed nets are gone, not dirty
}

TEST(EcoMutate, InvalidMutationLeavesStateUntouched) {
  DesignState state = design::make_design_state(eco_base_design(), 3);
  const std::string before = serialize_state(state);

  Mutation bad_move;
  bad_move.kind = MutationKind::kMovePins;
  bad_move.nets = {state.design.net_count() + 7};
  bad_move.new_pins = {{geom::Point{0, 0}}};
  EXPECT_EQ(design::apply_mutation(state, bad_move).status().code(),
            StatusCode::kInvalidArgument);

  Mutation bad_add;
  bad_add.kind = MutationKind::kAddNets;
  bad_add.added.push_back(design::Net{"oob", {geom::Point{-1, 0}}});
  EXPECT_EQ(design::apply_mutation(state, bad_add).status().code(),
            StatusCode::kInvalidArgument);

  Mutation bad_blockage;
  bad_blockage.kind = MutationKind::kRemoveBlockage;
  bad_blockage.blockage_index = 0;  // no blockages exist yet
  EXPECT_EQ(design::apply_mutation(state, bad_blockage).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(serialize_state(state), before);
}

TEST(EcoMutate, BlockageWalkReplaysAndScalesCapacities) {
  DesignState state = design::make_design_state(eco_base_design(), 3);
  MutationParams params;
  const std::vector<float> cap0 = state.capacities();
  // Step 0 adds; later steps move the same overlay slot.
  for (int step = 0; step < 3; ++step) {
    const Mutation m = design::make_blockage_walk_step(state, params, 9, step);
    EXPECT_EQ(m.kind, step == 0 ? MutationKind::kAddBlockage
                                : MutationKind::kMoveBlockage);
    ASSERT_TRUE(design::apply_mutation(state, m).ok());
    ASSERT_EQ(state.blockages.size(), 1u);
  }
  // The same (seed, step) replays the same rectangle on a fresh state.
  DesignState replay = design::make_design_state(eco_base_design(), 3);
  ASSERT_TRUE(
      design::apply_mutation(replay, design::make_blockage_walk_step(replay, params, 9, 0))
          .ok());
  const Mutation step1 = design::make_blockage_walk_step(replay, params, 9, 1);
  ASSERT_TRUE(design::apply_mutation(replay, step1).ok());
  const Mutation step2 = design::make_blockage_walk_step(replay, params, 9, 2);
  ASSERT_TRUE(design::apply_mutation(replay, step2).ok());
  EXPECT_EQ(state.blockages.front(), replay.blockages.front());
  // Covered edges are scaled down, everything else untouched.
  const std::vector<float> cap1 = state.capacities();
  const auto& grid = state.design.grid();
  bool any_scaled = false;
  for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
    const auto ei = static_cast<std::size_t>(e);
    if (state.blockages.front().covers_edge(grid, e)) {
      EXPECT_NEAR(cap1[ei], cap0[ei] * params.blockage_scale, 1e-5);
      any_scaled = true;
    } else {
      EXPECT_EQ(cap1[ei], cap0[ei]);
    }
  }
  EXPECT_TRUE(any_scaled);
}

// ---------------------------------------------------------------------------
// DemandMap rip-up round-trip (the asymmetry the ECO layer depends on)
// ---------------------------------------------------------------------------

TEST(EcoDemand, RouteLevelRipUpRestoresDemandByteForByte) {
  // Non-dyadic via charge: with naive += accumulation this drifts; the
  // quantized DemandMap::add makes commit→uncommit exact.
  pipeline::ContextOptions copts;
  copts.via_beta = 0.3f;
  const design::Design d = eco_base_design();
  pipeline::RoutingContext ctx(d, copts);
  pipeline::Pipeline pipe(ctx);
  const pipeline::PipelineResult full =
      pipe.run("cugr2-lite", {}, pipeline::StagePlan{.maze_refine = false,
                                                     .layer_assign = false});
  ASSERT_FALSE(full.solution.nets.empty());

  const std::vector<double> routed = ctx.demand().raw();
  // Rip up every net (reverse order, interleaved signs exercised elsewhere).
  for (const eval::NetRoute& net : full.solution.nets) ctx.commit(net, -1.0);
  for (const double v : ctx.demand().raw()) EXPECT_EQ(v, 0.0);
  // Re-commit restores the routed demand bit-for-bit.
  for (const eval::NetRoute& net : full.solution.nets) ctx.commit(net, +1.0);
  EXPECT_EQ(ctx.demand().raw(), routed);
}

// ---------------------------------------------------------------------------
// EcoEngine closure + fallback semantics
// ---------------------------------------------------------------------------

/// Two parallel horizontal nets in disjoint corridors; blocking one corridor
/// must pull exactly that net into the closure.
DesignState two_corridor_state() {
  grid::GCellGrid grid = grid::GCellGrid::uniform(12, 12, 4, 3);
  std::vector<design::Net> nets;
  nets.push_back({"low", {{1, 1}, {10, 1}}});
  nets.push_back({"high", {{1, 10}, {10, 10}}});
  return design::make_design_state(design::Design("two_corridor", grid, std::move(nets)), 1);
}

TEST(EcoEngine, LegalityClosurePullsOnlyBlockedNets) {
  EcoOptions opts = eco_options("cugr2-lite");
  opts.full_reroute_threshold = 1.0;  // force the delta path (2 nets total)
  EcoEngine engine(two_corridor_state(), opts);
  ASSERT_TRUE(engine.route_full().ok());

  Mutation m;
  m.kind = MutationKind::kAddBlockage;
  m.label = "hard_block_low";
  m.blockage = design::Blockage{geom::Rect{{0, 0}, {11, 3}}, 0.0f};
  Result<EcoResult> r = engine.apply(m);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const EcoResult result = r.take();
  EXPECT_EQ(result.stats.seed_dirty, 0u);     // blockages name no nets directly
  EXPECT_EQ(result.stats.closure_dirty, 1u);  // "low" crosses the blocked band
  EXPECT_FALSE(result.stats.full_reroute);
  EXPECT_GE(result.stats.closure_rounds, 1);
  EXPECT_TRUE(result.validation.status.ok()) << result.validation.status.message();
}

TEST(EcoEngine, DeltaRouteWarmStartsFromUnchangedNets) {
  EcoOptions opts = eco_options("cugr2-lite");
  opts.full_reroute_threshold = 1.0;  // force the delta path (2 nets total)
  EcoEngine engine(two_corridor_state(), opts);
  ASSERT_TRUE(engine.route_full().ok());

  Mutation m;
  m.kind = MutationKind::kAddBlockage;
  m.blockage = design::Blockage{geom::Rect{{0, 0}, {11, 3}}, 0.0f};
  Result<EcoResult> r = engine.apply(m);
  ASSERT_TRUE(r.ok()) << r.status().message();
  // A blockage moves no pin, so "low", the one closure net, hands its
  // previous route to the delta router as a warm start.
  EXPECT_EQ(r.value().stats.closure_dirty, 1u);
  EXPECT_FALSE(r.value().stats.full_reroute);
  EXPECT_EQ(r.value().router_stats.counter("warm_started"), 1.0);
}

TEST(EcoEngine, OpportunityClosureReclaimsFreedRegion) {
  DesignState state = two_corridor_state();
  Mutation blk;
  blk.kind = MutationKind::kAddBlockage;
  blk.blockage = design::Blockage{geom::Rect{{0, 0}, {11, 3}}, 0.25f};
  ASSERT_TRUE(design::apply_mutation(state, blk).ok());

  EcoOptions opts = eco_options("cugr2-lite");
  opts.full_reroute_threshold = 1.0;  // force the delta path
  EcoEngine engine(std::move(state), opts);
  ASSERT_TRUE(engine.route_full().ok());

  Mutation lift;
  lift.kind = MutationKind::kRemoveBlockage;
  lift.blockage_index = 0;
  Result<EcoResult> r = engine.apply(lift);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const EcoResult result = r.take();
  // Lifting the blockage frees capacity inside "low"'s pin box, so the
  // opportunity closure re-routes it; "high"'s corridor never changed.
  EXPECT_EQ(result.stats.closure_dirty, 1u);
  EXPECT_TRUE(result.validation.status.ok()) << result.validation.status.message();
}

TEST(EcoEngine, DirtyFractionFallbackMatchesScratchBitwise) {
  const design::Design base = eco_base_design();
  EcoOptions opts = eco_options("cugr2-lite");
  opts.full_reroute_threshold = 0.0;  // everything falls back
  EcoEngine engine(design::make_design_state(base, 3), opts);
  ASSERT_TRUE(engine.route_full().ok());

  util::Rng rng(5);
  const Mutation m = design::make_move_pins(engine.state(), MutationParams{}, rng);
  Result<EcoResult> r = engine.apply(m);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().stats.full_reroute);

  // A scratch engine on the evolved state must produce the same bytes: the
  // fallback path is exactly a cold route of the mutated design.
  EcoEngine scratch(engine.state(), eco_options("cugr2-lite"));
  ASSERT_TRUE(scratch.route_full().ok());
  EXPECT_EQ(serialize(engine.solution()), serialize(scratch.solution()));
}

TEST(EcoEngine, ApplyBeforeBaselineIsTyped) {
  EcoEngine engine(design::make_design_state(eco_base_design(), 3),
                   eco_options("cugr2-lite"));
  Mutation m;
  m.kind = MutationKind::kAddBlockage;
  m.blockage = design::Blockage{geom::Rect{{0, 0}, {2, 2}}, 0.5f};
  EXPECT_EQ(engine.apply(m).status().code(), StatusCode::kInvalidArgument);
}

TEST(EcoEngine, AdoptedBaselineDrivesApply) {
  const DesignState state = design::make_design_state(eco_base_design(), 3);
  pipeline::ContextOptions copts;
  copts.capacities = state.capacities();
  pipeline::RoutingContext ctx(state.design, copts);
  pipeline::Pipeline pipe(ctx);
  const pipeline::PipelineResult full =
      pipe.run("cugr2-lite", {}, pipeline::StagePlan{.maze_refine = false,
                                                     .layer_assign = false});
  ASSERT_TRUE(full.stats.status.ok());

  EcoEngine engine(state, eco_options("cugr2-lite"));
  ASSERT_TRUE(engine.adopt(full.solution).ok());
  util::Rng rng(8);
  const Mutation m = design::make_move_pins(engine.state(), MutationParams{}, rng);
  Result<EcoResult> r = engine.apply(m);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().validation.status.ok());
}

// ---------------------------------------------------------------------------
// Differential equivalence: the centerpiece matrix
// ---------------------------------------------------------------------------

struct DifferentialOutcome {
  std::string final_solution;   ///< serialized, for determinism comparisons
  std::vector<double> eco_wl;   ///< per-step ECO total wirelength
  std::vector<double> eco_ovf;  ///< per-step ECO weighted overflow
};

/// Replays the seeded mutation matrix through one engine, checking each ECO
/// step against a from-scratch route of the same evolved design. (Void so
/// ASSERT_* can abort it; results land in *out.)
void run_differential(const std::string& router, std::uint64_t seed,
                      bool check_against_scratch, DifferentialOutcome* out) {
  EcoEngine engine(design::make_design_state(eco_base_design(seed), seed),
                   eco_options(router));
  Result<EcoResult> base = engine.route_full();
  ASSERT_TRUE(base.ok()) << router << ": " << base.status().message();

  const std::vector<Mutation> matrix = mutation_matrix(engine.state(), seed * 1000 + 7);
  for (const Mutation& m : matrix) {
    Result<EcoResult> step = engine.apply(m);
    ASSERT_TRUE(step.ok()) << router << " @ " << m.label << ": "
                           << step.status().message();
    const EcoResult eco = step.take();
    // Gate 1: the merged solution passes the PR 3 validation gate.
    EXPECT_TRUE(eco.validation.status.ok())
        << router << " @ " << m.label << ": " << eco.validation.status.message();
    EXPECT_TRUE(eco.validation.demand_consistent);
    out->eco_wl.push_back(static_cast<double>(eco.metrics.wirelength));
    out->eco_ovf.push_back(eco.weighted_overflow);

    if (!check_against_scratch) continue;
    // Gate 2: shared-eval metrics agree with a from-scratch route of the
    // same evolved design within tolerance. The two runs draw different
    // noise (the delta context forks the seed per apply), so the bound is
    // a quality band, not bit-equality.
    EcoEngine scratch(engine.state(), eco_options(router));
    Result<EcoResult> cold = scratch.route_full();
    ASSERT_TRUE(cold.ok()) << router << ": " << cold.status().message();
    const EcoResult& ref = cold.value();
    const auto wl_eco = static_cast<double>(eco.metrics.wirelength);
    const auto wl_ref = static_cast<double>(ref.metrics.wirelength);
    EXPECT_LE(std::abs(wl_eco - wl_ref), 0.15 * wl_ref + 16.0)
        << router << " @ " << m.label << ": eco wl " << wl_eco << " vs scratch "
        << wl_ref;
    EXPECT_LE(eco.metrics.total_overflow, ref.metrics.total_overflow * 1.5 + 10.0)
        << router << " @ " << m.label << ": eco overflow "
        << eco.metrics.total_overflow << " vs scratch " << ref.metrics.total_overflow;
  }
  out->final_solution = serialize(engine.solution());
}

TEST(EcoDifferential, EveryRouterAgreesWithScratchAcrossMutationMatrix) {
  for (const std::string& router : pipeline::registered_routers()) {
    SCOPED_TRACE(router);
    DifferentialOutcome out;
    run_differential(router, 11, /*check_against_scratch=*/true, &out);
  }
}

TEST(EcoDifferential, SecondSeedAgreesToo) {
  // A second matrix seed on the cheap deterministic baselines (running the
  // full router set twice would double suite time for little new signal).
  for (const std::string router : {"cugr2-lite", "sproute-lite"}) {
    SCOPED_TRACE(router);
    DifferentialOutcome out;
    run_differential(router, 23, /*check_against_scratch=*/true, &out);
  }
}

TEST(EcoDifferential, BitwiseDeterministicAcrossWorkerCounts) {
  for (const std::string& router : pipeline::registered_routers()) {
    SCOPED_TRACE(router);
    std::string reference;
    for (const int workers : {1, 2, 4}) {
      util::set_worker_count(workers);
      DifferentialOutcome out;
      run_differential(router, 11, /*check_against_scratch=*/false, &out);
      if (reference.empty()) {
        reference = out.final_solution;
      } else {
        EXPECT_EQ(out.final_solution, reference)
            << router << ": ECO sequence diverged at workers=" << workers;
      }
    }
    util::set_worker_count(0);
  }
}

// ---------------------------------------------------------------------------
// Chaos: eco.closure / eco.recommit roll back to the pre-mutation state
// ---------------------------------------------------------------------------

void expect_clean_rollback(const char* site, std::uint64_t plan_seed) {
  EcoEngine engine(design::make_design_state(eco_base_design(), 3),
                   eco_options("cugr2-lite"));
  ASSERT_TRUE(engine.route_full().ok());
  const std::string solution_before = serialize(engine.solution());
  const std::string state_before = serialize_state(engine.state());
  const std::vector<float> cap_before = engine.capacities();
  const std::int64_t applied_before = engine.applied();

  util::Rng rng(plan_seed);
  const Mutation m = design::make_move_pins(engine.state(), MutationParams{}, rng);
  {
    util::fault::ScopedPlan chaos({plan_seed, {{site, 1.0, 1}}});
    Result<EcoResult> r = engine.apply(m);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected) << r.status().message();
  }
  // Byte-for-byte rollback: solution, design state, capacities, counters.
  EXPECT_EQ(serialize(engine.solution()), solution_before);
  EXPECT_EQ(serialize_state(engine.state()), state_before);
  EXPECT_EQ(engine.capacities(), cap_before);
  EXPECT_EQ(engine.applied(), applied_before);

  // The engine stays usable: the same mutation applies cleanly once the
  // fault plan is gone.
  Result<EcoResult> retry = engine.apply(m);
  ASSERT_TRUE(retry.ok()) << retry.status().message();
  EXPECT_TRUE(retry.value().validation.status.ok());
  EXPECT_EQ(engine.applied(), applied_before + 1);
}

TEST(EcoChaos, ClosureFaultRollsBackSeed7) {
  SKIP_WITHOUT_HOOKS();
  expect_clean_rollback("eco.closure", 7);
}

TEST(EcoChaos, ClosureFaultRollsBackSeed99) {
  SKIP_WITHOUT_HOOKS();
  expect_clean_rollback("eco.closure", 99);
}

TEST(EcoChaos, RecommitFaultRollsBackSeed7) {
  SKIP_WITHOUT_HOOKS();
  expect_clean_rollback("eco.recommit", 7);
}

TEST(EcoChaos, RecommitFaultRollsBackSeed99) {
  SKIP_WITHOUT_HOOKS();
  expect_clean_rollback("eco.recommit", 99);
}

}  // namespace
}  // namespace dgr
