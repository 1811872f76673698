// congested_flow and clean_ladder: passes over a fixed design set, each
// design routed through the whole flow (route, maze refine, validate, layer
// assign, eval). The untraced passes call pipeline::Pipeline::run; the
// traced pass makes the same flow out of the public calls Pipeline::run
// makes, with a span around each, and must reproduce its results exactly.

#include <algorithm>
#include <optional>

#include "dgr/dgr.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace dgr::bench {
namespace {

constexpr int kDgrIterations = 1000;
/// Preset scale of the routed instances: a quarter of the nets on half the
/// grid edge, which keeps each preset's routing density (nets per edge).
constexpr double kInstanceScale = 0.25;
constexpr int kParseRounds = 3;
constexpr pipeline::StagePlan kPlan{.maze_refine = true, .layer_assign = true};

pipeline::RouterOptions router_options(const std::string& router) {
  pipeline::RouterOptions o;
  o.dgr.iterations = kDgrIterations;
  o.dgr.temperature_interval = kDgrIterations / 10;
  if (router == "partitioned") {
    o.partition.partitions = 4;
    o.partition.region_router = "cugr2-lite";
  }
  return o;
}

/// Quality of one flow: compared exactly across passes and between the
/// untraced and traced passes.
struct Quality {
  std::int64_t wirelength = 0;
  std::int64_t bends = 0;
  std::int64_t vias = 0;
  std::int64_t nets = 0;
  std::int64_t nets_with_overflow = 0;
  std::int64_t overflow_edges = 0;
  double total_overflow = 0.0;
  double weighted_overflow = 0.0;
  bool operator==(const Quality&) const = default;
};

struct FlowResult {
  bool ok = false;
  Quality quality;
  std::int64_t hpwl = 0;
  // Program-reported counters, gathered by the traced pass only.
  double path_candidates = 0.0;
  double forest_bytes = 0.0;
  double tape_bytes = 0.0;
  double iterations = 0.0;
  double rollbacks = 0.0;
  double refine_rerouted = 0.0;
  double refine_improved = 0.0;
  double repaired = 0.0;
  double cross_nets = 0.0;
  double reconcile_rerouted = 0.0;
};

bool same_metrics(const eval::Metrics& a, const eval::Metrics& b) {
  return a.overflow_edges == b.overflow_edges && a.total_overflow == b.total_overflow &&
         a.peak_overflow == b.peak_overflow && a.wirelength == b.wirelength &&
         a.bends == b.bends;
}

/// The checks every flow must pass, traced or not.
bool check_flow(RunResult& rr, const std::string& label, const pipeline::RoutingContext& ctx,
                const eval::RouteSolution& sol, const eval::Metrics& reported,
                const pipeline::ValidationReport& validation, const Status& status,
                bool degraded) {
  const std::size_t before = rr.failed_checks.size();
  rr.check(status.ok() && !degraded, label + ": route ended " + status.to_string() +
                                         (degraded ? " (degraded)" : ""));
  rr.check(validation.status.ok() && validation.broken_nets.empty(),
           label + ": broken nets after repair");
  rr.check(same_metrics(eval::compute_metrics(sol, ctx.capacities(), ctx.via_beta()), reported),
           label + ": compute_metrics on the solution disagrees with the reported metrics");
  return rr.failed_checks.size() == before;
}

Quality quality_of(const eval::Metrics& m, std::int64_t vias, std::size_t nets,
                   std::int64_t nets_with_overflow, double weighted_overflow) {
  Quality q;
  q.wirelength = m.wirelength;
  q.bends = m.bends;
  q.vias = vias;
  q.nets = static_cast<std::int64_t>(nets);
  q.nets_with_overflow = nets_with_overflow;
  q.overflow_edges = m.overflow_edges;
  q.total_overflow = m.total_overflow;
  q.weighted_overflow = weighted_overflow;
  return q;
}

FlowResult run_flow(const design::Design& d, const std::string& router, RunResult& rr) {
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  const pipeline::PipelineResult r = pipe.run(router, router_options(router), kPlan);
  FlowResult f;
  f.ok = check_flow(rr, d.name() + "/" + router, ctx, r.solution, r.metrics, r.validation,
                    r.stats.status, r.stats.degraded);
  f.quality = quality_of(r.metrics, r.layers.via_count, r.solution.nets.size(),
                         r.nets_with_overflow, r.weighted_overflow);
  f.hpwl = d.total_hpwl();
  return f;
}

/// The Pipeline::run flow rebuilt from public calls, one span around each.
FlowResult run_flow_traced(const design::Design& d, const std::string& router, RunResult& rr,
                           SpanLog& log) {
  const std::string id = d.name() + "/" + router;
  const pipeline::RouterOptions ro = router_options(router);
  const pipeline::PipelineOptions popts;
  SpanScope flow(&log, "bench.flow", id);
  FlowResult f;

  std::optional<pipeline::RoutingContext> ctx;
  {
    SpanScope s(&log, "pipeline.context", id);
    ctx.emplace(d);
  }
  eval::RouteSolution sol;
  Status status;
  bool degraded = false;
  if (router == "dgr") {
    dag::ForestOptions fopts = ro.forest;
    fopts.via_demand_beta = ctx->via_beta();
    const dag::DagForest* forest = nullptr;
    {
      SpanScope s(&log, "dag.forest", id);
      forest = &ctx->forest(fopts);
    }
    std::optional<core::DgrSolver> solver;
    {
      SpanScope s(&log, "core.init", id);
      solver.emplace(*forest, ctx->capacities(), ro.dgr);
    }
    core::TrainStats train;
    {
      SpanScope s(&log, "core.train", id);
      train = solver->train();
    }
    {
      SpanScope s(&log, "core.extract", id);
      sol = solver->extract();
    }
    {
      SpanScope s(&log, "pipeline.commit", id);
      ctx->reset_demand();
      ctx->commit(sol);
    }
    status = train.status;
    f.path_candidates = static_cast<double>(forest->paths().size());
    f.forest_bytes = static_cast<double>(forest->memory_bytes());
    f.tape_bytes = static_cast<double>(train.tape_bytes);
    f.iterations = train.iterations_run;
    f.rollbacks = train.rollbacks;
  } else {
    const std::unique_ptr<pipeline::Router> engine = pipeline::make_router(router, ro);
    int span = -1;
    {
      SpanScope s(&log, "partition.route", id);
      span = s.index();
      sol = engine->route(*ctx);
    }
    const pipeline::RouterStats& st = engine->stats();
    std::vector<std::pair<std::string, double>> stages;
    for (const pipeline::StageTime& t : st.stages) {
      stages.emplace_back(t.stage == "partition" ? "partition.plan" : "partition." + t.stage,
                          t.seconds);
    }
    log.add_stages(span, stages);
    status = st.status;
    degraded = st.degraded;
    f.cross_nets = st.counter("cross_nets");
    f.reconcile_rerouted = st.counter("reconcile_rerouted");
  }

  post::MazeRefineStats refine;
  {
    SpanScope s(&log, "post.maze_refine", id);
    post::MazeRefineOptions opts = popts.refine;
    opts.via_beta = ctx->via_beta();
    refine = post::maze_refine(sol, ctx->capacities(), opts);
  }
  {
    SpanScope s(&log, "pipeline.commit", id);
    ctx->reset_demand();
    ctx->commit(sol);
  }
  pipeline::ValidationReport validation;
  {
    SpanScope s(&log, "pipeline.validate", id);
    validation = pipeline::validate_solution(*ctx, sol);
    if (!validation.demand_consistent) {
      ctx->reset_demand();
      ctx->commit(sol);
    }
    if (!validation.broken_nets.empty()) {
      post::MazeRefineOptions opts = popts.refine;
      opts.via_beta = ctx->via_beta();
      f.repaired = static_cast<double>(
          pipeline::repair_broken_nets(*ctx, sol, validation.broken_nets, opts));
      validation = pipeline::validate_solution(*ctx, sol);
    }
  }
  post::LayerAssignment layers;
  {
    SpanScope s(&log, "post.layer_assign", id);
    layers = post::assign_layers(sol, ctx->capacities(), popts.layers);
  }
  eval::Metrics metrics;
  double weighted = 0.0;
  std::int64_t nets_with_overflow = 0;
  {
    SpanScope s(&log, "eval.metrics", id);
    metrics = ctx->evaluate(sol);
    weighted = ctx->weighted_overflow(sol);
    nets_with_overflow = ctx->nets_with_overflow(sol);
  }
  f.ok = check_flow(rr, id + " (traced)", *ctx, sol, metrics, validation, status, degraded);
  f.quality = quality_of(metrics, layers.via_count, sol.nets.size(), nets_with_overflow, weighted);
  f.hpwl = d.total_hpwl();
  f.refine_rerouted = static_cast<double>(refine.nets_rerouted);
  f.refine_improved = static_cast<double>(refine.nets_improved);
  return f;
}

struct Pass {
  std::vector<double> setup_s;  ///< each parse of the design texts
  double flow_s = 0.0;          ///< routing every design through every router
  std::vector<FlowResult> flows;
};

Pass run_pass(const std::vector<std::string>& texts, const std::vector<std::string>& routers,
              RunResult& rr, SpanLog* log) {
  Pass pass;
  // Set-up is a few ms of parsing, so every pass repeats it, which spreads
  // its samples over the run; the last parse is the one routed.
  std::vector<design::Design> designs;
  for (int round = 0; round < kParseRounds; ++round) {
    util::Timer timer;
    designs.clear();
    for (const std::string& text : texts) designs.push_back(parse_design(text, rr));
    pass.setup_s.push_back(timer.seconds());
  }

  util::Timer timer;
  {
    std::optional<SpanScope> root;
    if (log != nullptr) root.emplace(log, "bench.pass");
    for (const design::Design& d : designs) {
      for (const std::string& router : routers) {
        op_started();
        pass.flows.push_back(log != nullptr ? run_flow_traced(d, router, rr, *log)
                                            : run_flow(d, router, rr));
        op_finished(pass.flows.back().ok);
      }
    }
  }
  pass.flow_s = timer.seconds();
  return pass;
}

/// Routes `instances` independently seeded designs of every preset per
/// pass. Whether a design ends congested depends on where its hot spots
/// land, so one design per preset would make the run's numbers swing with
/// the seed; many smaller instances average that out.
RunResult run_batch(const RunConfig& config, const std::vector<design::IspdLikeParams>& presets,
                    int instances, const std::vector<std::string>& routers) {
  RunResult rr;
  std::vector<std::string> texts;
  for (int k = 0; k < (config.smoke ? 1 : instances); ++k) {
    for (std::size_t i = 0; i < (config.smoke ? 1 : presets.size()); ++i) {
      design::IspdLikeParams p = presets[i];
      p.name += '_';
      p.name += std::to_string(k);
      texts.push_back(design_text(design::generate_ispd_like(
          p, config.seed * 1000003 + static_cast<std::uint64_t>(k) * 1000 + i)));
    }
  }

  // Traced runs spend half the budget untraced, for the overhead reference,
  // then make one traced pass.
  const bool traced = config.spans != nullptr;
  const double budget = traced ? config.seconds / 2.0 : config.seconds;
  const std::size_t min_passes = traced ? 2 : 3;
  util::Timer clock;
  std::vector<Pass> passes;
  std::vector<double> setup_s, flow_s;
  do {
    passes.push_back(run_pass(texts, routers, rr, nullptr));
    setup_s.insert(setup_s.end(), passes.back().setup_s.begin(), passes.back().setup_s.end());
    flow_s.push_back(passes.back().flow_s);
    bool same = true;
    for (std::size_t i = 0; i < passes.back().flows.size(); ++i) {
      same = same && passes.back().flows[i].quality == passes.front().flows[i].quality;
    }
    rr.check(same, "quality differs between repetitions");
  } while (!config.smoke &&
           (passes.size() < min_passes || clock.seconds() + median(flow_s) <= budget));

  const Pass& first = passes.front();
  const double flows = static_cast<double>(first.flows.size());
  std::int64_t wl = 0, hpwl = 0, nets = 0, overflowed_nets = 0;
  for (const FlowResult& f : first.flows) {
    wl += f.quality.wirelength;
    hpwl += f.hpwl;
    nets += f.quality.nets;
    overflowed_nets += f.quality.nets_with_overflow;
  }
  for (const double s : flow_s) rr.op_ms.push_back(s * 1e3);
  rr.e2e["setup_s"] = median(setup_s);
  rr.e2e["op_p50_ms"] = median(flow_s) * 1e3;
  rr.e2e["op_tail_ms"] = *std::max_element(flow_s.begin(), flow_s.end()) * 1e3;
  rr.e2e["ops_per_s"] = flows / median(flow_s);
  rr.e2e["wl_ratio"] = static_cast<double>(wl) / static_cast<double>(hpwl);
  rr.e2e["clean_net_share"] =
      1.0 - static_cast<double>(overflowed_nets) / static_cast<double>(nets);
  if (!traced) return rr;

  const Pass pass = run_pass(texts, routers, rr, config.spans);
  bool same = pass.flows.size() == first.flows.size();
  for (std::size_t i = 0; same && i < pass.flows.size(); ++i) {
    same = pass.flows[i].quality == first.flows[i].quality;
  }
  rr.check(same, "traced flow does not reproduce the Pipeline::run quality metrics");

  rr.layers["design.parse_ms"] = median(setup_s) * 1e3 / static_cast<double>(texts.size());
  set_self_shares(rr, *config.spans, "bench.pass",
                  {"pipeline.context", "dag.forest", "core.init", "core.train", "core.extract",
                   "pipeline.commit", "partition.route", "partition.regions",
                   "partition.reconcile", "post.maze_refine", "pipeline.validate",
                   "post.layer_assign", "eval.metrics"});
  set_trace_checks(rr, *config.spans, warm_median(flow_s), pass.flow_s);

  double rerouted = 0.0, improved = 0.0, tape = 0.0;
  std::int64_t overflow_edges = 0;
  double overflow_total = 0.0, vias = 0.0;
  for (const FlowResult& f : pass.flows) {
    rr.layers["dag.path_candidates"] += f.path_candidates;
    rr.layers["dag.forest_mb"] += f.forest_bytes / 1e6;
    rr.layers["core.train_iterations"] += f.iterations;
    rr.layers["core.rollbacks"] += f.rollbacks;
    rr.layers["pipeline.repaired_nets"] += f.repaired;
    rr.layers["partition.cross_nets"] += f.cross_nets;
    rr.layers["partition.reconcile_rerouted"] += f.reconcile_rerouted;
    rerouted += f.refine_rerouted;
    improved += f.refine_improved;
    tape = std::max(tape, f.tape_bytes);
    overflow_edges += f.quality.overflow_edges;
    overflow_total += f.quality.total_overflow;
    vias += static_cast<double>(f.quality.vias);
  }
  rr.layers["core.tape_mb"] = tape / 1e6;
  rr.layers["post.maze_refine.rerouted"] = rerouted;
  rr.layers["post.maze_refine.improved"] = improved;
  rr.layers["post.maze_refine.useful_ratio"] = rerouted > 0.0 ? improved / rerouted : 0.0;
  rr.layers["post.layer_assign.vias"] = vias;
  rr.layers["eval.overflow_edges"] = static_cast<double>(overflow_edges);
  rr.layers["eval.overflow_total"] = overflow_total;
  return rr;
}

}  // namespace

RunResult run_congested_flow(const RunConfig& config) {
  std::vector<design::IspdLikeParams> presets;
  for (const design::IspdLikeParams& p : design::table2_presets(kInstanceScale)) {
    if (p.name == "ispd18_5m" || p.name == "ispd18_10m") presets.push_back(p);
  }
  return run_batch(config, presets, 8, {"dgr", "partitioned"});
}

RunResult run_clean_ladder(const RunConfig& config) {
  std::vector<design::IspdLikeParams> presets = design::table3_presets(kInstanceScale);
  presets.erase(presets.begin());  // test1 is a toy; the ladder starts at test2
  return run_batch(config, presets, 3, {"dgr"});
}

}  // namespace dgr::bench
