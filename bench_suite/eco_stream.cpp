// eco_stream: kDesigns designs, each routed once by cugr2-lite as set-up,
// then a stream of seeded edits through eco::EcoEngine::apply.
//
// Every round applies one edit of each mutation kind to each design, drawn
// by the seeded design::make_* generators. A random kind mix (as
// design::generate_mutation draws it) would make a run's latency swing with
// how many expensive kinds the seed happens to pick; a fixed rotation keeps
// the mix the same for every seed. Eight 28x28 designs with 500 nets each
// (the net density of one 48x48, 1400-net design) average out where each
// design's congestion lands. Wirelength is held to a from-scratch route of
// the edited designs by the same router, which cancels how hard each
// seeded design is and leaves what incremental routing gives up.
//
// A cycle is kRounds rounds replayed from the routed base states, so every
// run measures the same edits however fast the engine is. The first cycle
// draws the edits from the evolving states; later cycles replay them and
// must reproduce its final quality exactly.

#include <memory>
#include <optional>

#include "dgr/dgr.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace dgr::bench {
namespace {

constexpr int kDesigns = 8;
constexpr int kRounds = 20;
constexpr int kKinds = 7;
constexpr int kSetups = 4;
/// Full reroutes are about 5% of applies: p95 sits on the edge between them
/// and the delta applies, and p99 on a handful of them, so both swing with
/// the seed; p90 is the steady tail of the delta applies.
constexpr double kTailPercentile = 90.0;

/// Edit `kind` of a round. The order keeps every kind applicable (a
/// blockage exists before one is moved or removed) and the blockage count
/// steady from round to round.
design::Mutation make_edit(int kind, const design::DesignState& state,
                           const design::MutationParams& p, util::Rng& rng) {
  switch (kind) {
    case 0: return design::make_move_pins(state, p, rng);
    case 1: return design::make_add_blockage(state, p, rng);
    case 2: return design::make_add_nets(state, p, rng);
    case 3: return design::make_blockage_walk_step(state, p, rng.next_u64(), 1);
    case 4: return design::make_remove_nets(state, p, rng);
    case 5: return design::make_reweight_class(state, p, rng);
    default: return design::make_remove_blockage(state, p, rng);
  }
}

/// Quality of the states a cycle ends in, summed over the designs.
struct Final {
  std::int64_t wirelength = 0;
  std::int64_t bends = 0;
  std::int64_t vias = 0;
  std::int64_t nets = 0;
  std::int64_t nets_with_overflow = 0;
  std::int64_t overflow_edges = 0;
  double total_overflow = 0.0;
  bool operator==(const Final&) const = default;
};

struct Cycle {
  double apply_s = 0.0;  ///< summed apply time
  std::vector<double> apply_ms;
  Final final;
  double dirty_fraction_sum = 0.0;
  int full_reroutes = 0;
  std::int64_t repaired = 0;
};

class Stream {
 public:
  Stream(const RunConfig& config, RunResult& rr) : config_(config), rr_(rr) {
    options_.router = "cugr2-lite";
    for (int d = 0; d < kDesigns; ++d) rngs_.emplace_back(config.seed * 1000003 + d);
  }

  /// Parses the design texts, builds one engine per design and routes each
  /// design once. Returns the set-up time in seconds and the parse time per
  /// design in ms.
  std::pair<double, double> set_up(const std::vector<std::string>& texts) {
    util::Timer timer;
    std::vector<design::Design> designs;
    for (const std::string& text : texts) designs.push_back(parse_design(text, rr_));
    const double parse_ms = timer.millis() / static_cast<double>(texts.size());
    base_.clear();
    for (std::size_t d = 0; d < designs.size(); ++d) {
      base_.push_back(std::make_unique<eco::EcoEngine>(
          design::make_design_state(std::move(designs[d]), config_.seed + d), options_));
      const Result<eco::EcoResult> routed = base_.back()->route_full();
      rr_.check(routed.ok(), "initial route failed: " + routed.status().to_string());
    }
    return {timer.seconds(), parse_ms};
  }

  Cycle run_cycle(SpanLog* log) {
    Cycle c;
    std::vector<std::unique_ptr<eco::EcoEngine>> engines;
    for (const auto& base : base_) {
      engines.push_back(std::make_unique<eco::EcoEngine>(base->state(), options_));
      const Status adopted = engines.back()->adopt(base->solution());
      rr_.check(adopted.ok(), "adopting the routed base failed: " + adopted.to_string());
    }
    std::vector<eco::EcoResult> last(engines.size());
    std::optional<SpanScope> root;
    if (log != nullptr) root.emplace(log, "bench.cycle");
    std::size_t k = 0;
    for (int round = 0; round < (config_.smoke ? 1 : kRounds); ++round) {
      for (int kind = 0; kind < kKinds; ++kind) {
        for (std::size_t d = 0; d < engines.size(); ++d, ++k) {
          if (k == edits_.size()) {
            edits_.push_back(make_edit(kind, engines[d]->state(), params_, rngs_[d]));
          }
          const design::Mutation& m = edits_[k];
          op_started();
          util::Timer timer;
          int span = -1;
          Result<eco::EcoResult> r = [&] {
            SpanScope s(log, "eco.apply", m.label);
            span = s.index();
            return engines[d]->apply(m);
          }();
          c.apply_ms.push_back(timer.millis());
          c.apply_s += c.apply_ms.back() / 1e3;
          op_finished(r.ok());
          rr_.check(r.ok(), "eco apply " + m.label + " failed: " + r.status().to_string());
          if (!r.ok()) continue;
          last[d] = r.take();
          const eco::EcoStats& st = last[d].stats;
          if (log != nullptr) {
            log->add_stages(span, {{"eco.closure", st.closure_seconds},
                                   {"eco.route", st.route_seconds},
                                   {"eco.merge", st.merge_seconds}});
          }
          c.dirty_fraction_sum += st.dirty_fraction;
          c.full_reroutes += st.full_reroute ? 1 : 0;
          c.repaired += st.repaired_nets;
        }
      }
    }
    for (std::size_t d = 0; d < engines.size(); ++d) {
      add_final(c.final, *engines[d], last[d], log);
      if (final_states_.size() < engines.size()) final_states_.push_back(engines[d]->state());
    }
    return c;
  }

  /// Wirelength of the edited designs routed from scratch by the same
  /// router: the reference the incremental result is held to.
  double scratch_wirelength() {
    double wl = 0.0;
    for (const design::DesignState& state : final_states_) {
      eco::EcoEngine scratch(state, options_);
      const Result<eco::EcoResult> full = scratch.route_full();
      rr_.check(full.ok(), "from-scratch reference route failed: " + full.status().to_string());
      if (full.ok()) wl += static_cast<double>(full.value().metrics.wirelength);
    }
    return wl;
  }

 private:
  /// The final state must validate, and eval::compute_metrics on it must
  /// equal what the last apply reported. Adds the state's quality to `f`.
  void add_final(Final& f, const eco::EcoEngine& engine, const eco::EcoResult& last,
                 SpanLog* log) {
    const std::string& id = engine.design().name();
    pipeline::ContextOptions co = options_.context;
    co.capacities = engine.capacities();
    std::optional<pipeline::RoutingContext> ctx;
    {
      SpanScope s(log, "pipeline.context", id);
      ctx.emplace(engine.design(), co);
    }
    const eval::RouteSolution& sol = engine.solution();
    {
      SpanScope s(log, "pipeline.commit", id);
      ctx->commit(sol);
    }
    pipeline::ValidationReport v;
    {
      SpanScope s(log, "pipeline.validate", id);
      v = pipeline::validate_solution(*ctx, sol);
    }
    rr_.check(v.status.ok() && v.broken_nets.empty() && v.demand_consistent,
              id + ": final ECO state does not validate: " + v.status.to_string());
    post::LayerAssignment layers;
    {
      SpanScope s(log, "post.layer_assign", id);
      layers = post::assign_layers(sol, ctx->capacities());
    }
    eval::Metrics m;
    std::int64_t nets_with_overflow = 0;
    {
      SpanScope s(log, "eval.metrics", id);
      m = ctx->evaluate(sol);
      nets_with_overflow = ctx->nets_with_overflow(sol);
    }
    rr_.check(m.wirelength == last.metrics.wirelength && m.bends == last.metrics.bends &&
                  m.overflow_edges == last.metrics.overflow_edges &&
                  m.total_overflow == last.metrics.total_overflow &&
                  nets_with_overflow == last.nets_with_overflow,
              id + ": compute_metrics on the final ECO state disagrees with the reported metrics");
    f.wirelength += m.wirelength;
    f.bends += m.bends;
    f.vias += layers.via_count;
    f.nets += static_cast<std::int64_t>(sol.nets.size());
    f.nets_with_overflow += nets_with_overflow;
    f.overflow_edges += m.overflow_edges;
    f.total_overflow += m.total_overflow;
  }

  const RunConfig& config_;
  RunResult& rr_;
  eco::EcoOptions options_;
  design::MutationParams params_;
  std::vector<util::Rng> rngs_;
  std::vector<std::unique_ptr<eco::EcoEngine>> base_;
  std::vector<design::Mutation> edits_;
  std::vector<design::DesignState> final_states_;
};

}  // namespace

RunResult run_eco_stream(const RunConfig& config) {
  RunResult rr;
  std::vector<std::string> texts;
  for (int d = 0; d < kDesigns; ++d) {
    design::IspdLikeParams p;
    p.name = "eco_stream_";
    p.name += std::to_string(d);
    p.grid_w = p.grid_h = 28;
    p.num_nets = 500;
    p.layers = 8;
    p.tracks_per_layer = 4;
    texts.push_back(design_text(design::generate_ispd_like(p, config.seed * 1000003 + d)));
  }

  util::Timer clock;
  Stream stream(config, rr);
  std::vector<double> setup_s, parse_ms;
  // The first set-up is a warm-up: right after process start it can run
  // twice as slow as the rest.
  for (int i = 0; i <= (config.smoke ? 0 : kSetups); ++i) {
    const auto [setup, parse] = stream.set_up(texts);
    if (i == 0 && !config.smoke) continue;
    setup_s.push_back(setup);
    parse_ms.push_back(parse);
  }
  if (!rr.correct()) return rr;
  reset_peak_rss();

  // Traced runs spend half the budget untraced, then trace one cycle.
  const bool traced = config.spans != nullptr;
  const double budget = traced ? config.seconds / 2.0 : config.seconds;
  const std::size_t min_cycles = 2;
  std::vector<Cycle> cycles;
  std::vector<double> cycle_s, apply_ms;
  do {
    cycles.push_back(stream.run_cycle(nullptr));
    cycle_s.push_back(cycles.back().apply_s);
    apply_ms.insert(apply_ms.end(), cycles.back().apply_ms.begin(), cycles.back().apply_ms.end());
    rr.check(cycles.back().final == cycles.front().final,
             "final quality differs between replays of the same edits");
  } while (!config.smoke &&
           (cycles.size() < min_cycles || clock.seconds() + median(cycle_s) <= budget));

  const Final& f = cycles.front().final;
  double total_apply_s = 0.0;
  for (const double s : cycle_s) total_apply_s += s;
  rr.op_ms = apply_ms;
  rr.e2e["setup_s"] = median(setup_s);
  rr.e2e["op_p50_ms"] = median(apply_ms);
  rr.e2e["op_tail_ms"] = windowed_percentile(apply_ms, cycles.size(), kTailPercentile);
  rr.e2e["ops_per_s"] = static_cast<double>(apply_ms.size()) / total_apply_s;
  rr.e2e["wl_ratio"] = static_cast<double>(f.wirelength) / stream.scratch_wirelength();
  rr.e2e["clean_net_share"] =
      1.0 - static_cast<double>(f.nets_with_overflow) / static_cast<double>(f.nets);
  if (!traced) return rr;

  const Cycle c = stream.run_cycle(config.spans);
  rr.check(c.final == f, "traced cycle does not reproduce the untraced final quality");
  const double applies = static_cast<double>(c.apply_ms.size());
  rr.layers["design.parse_ms"] = median(parse_ms);
  set_self_shares(rr, *config.spans, "bench.cycle",
                  {"eco.apply", "eco.closure", "eco.route", "eco.merge", "pipeline.context",
                   "pipeline.commit", "pipeline.validate", "post.layer_assign", "eval.metrics"});
  set_trace_checks(rr, *config.spans, warm_median(cycle_s), c.apply_s);
  rr.layers["eco.dirty_fraction_mean"] = c.dirty_fraction_sum / applies;
  rr.layers["eco.full_reroute_share"] = c.full_reroutes / applies;
  rr.layers["pipeline.repaired_nets"] = static_cast<double>(c.repaired);
  rr.layers["post.layer_assign.vias"] = static_cast<double>(c.final.vias);
  rr.layers["eval.overflow_edges"] = static_cast<double>(c.final.overflow_edges);
  rr.layers["eval.overflow_total"] = c.final.total_overflow;
  return rr;
}

}  // namespace dgr::bench
