#include "eco/eco.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/validate.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::eco {

namespace {

constexpr double kOverflowEps = 1e-6;
constexpr int kMaxClosureRounds = 8;

/// Demand tolerance below which a capacity change is considered unchanged.
constexpr float kCapEps = 1e-4f;

/// Capacity increase (in tracks) an edge needs to join the opportunity
/// closure; smaller changes are noise such as Eq. 1 pin-density drift.
constexpr float kOpportunityMinGain = 0.5f;

}  // namespace

EcoEngine::EcoEngine(design::DesignState base, EcoOptions options)
    : options_(std::move(options)),
      state_(std::make_unique<design::DesignState>(std::move(base))) {
  // Harden hand-built states: the classing vectors must parallel the nets.
  state_->net_class.resize(state_->design.net_count(), 0);
  if (state_->class_weight.empty()) state_->class_weight = {1.0f};
  capacities_ = compute_capacities(*state_);
}

EcoEngine::~EcoEngine() = default;

std::vector<float> EcoEngine::compute_capacities(const design::DesignState& state) const {
  return state.capacities(options_.context.capacities);
}

Result<EcoResult> EcoEngine::route_full() {
  util::Timer total;
  EcoStats stats;
  stats.routable_nets = state_->design.routable_nets().size();
  stats.seed_dirty = stats.closure_dirty = stats.routable_nets;
  stats.dirty_fraction = 1.0;
  auto next = std::make_unique<design::DesignState>(*state_);
  return full_reroute(std::move(next), capacities_, stats, total);
}

Status EcoEngine::adopt(const eval::RouteSolution& solution) {
  if (solution.design == nullptr) {
    return Status(StatusCode::kInvalidArgument, "eco: adopt of an empty solution");
  }
  if (solution.design->net_count() != state_->design.net_count() ||
      solution.nets.size() != state_->design.routable_nets().size()) {
    return Status(StatusCode::kInvalidArgument,
                  "eco: adopted solution does not match the design shape");
  }
  eval::RouteSolution local;
  local.design = &state_->design;
  local.nets.reserve(solution.nets.size());
  for (const eval::NetRoute& net : solution.nets) {
    if (net.design_net >= state_->design.net_count()) {
      return Status(StatusCode::kInvalidArgument, "eco: adopted net index out of range");
    }
    local.nets.push_back({net.design_net, net.paths});
  }
  solution_ = std::move(local);
  return Status();
}

Result<EcoResult> EcoEngine::apply(const design::Mutation& mutation) {
  DGR_TRACE_SCOPE("eco.apply");
  obs::metrics().counter("eco.applies").add(1);
  if (!has_solution()) {
    return Status(StatusCode::kInvalidArgument,
                  "eco: apply() before route_full()/adopt()");
  }
  util::Timer total;
  EcoStats stats;

  // ---- 1. mutate a private copy of the state ------------------------------
  auto next = std::make_unique<design::DesignState>(*state_);
  Result<design::MutationEffect> applied = design::apply_mutation(*next, mutation);
  if (!applied.ok()) return applied.status();
  const design::MutationEffect effect = applied.take();
  stats.seed_dirty = effect.dirty.size();

  const design::Design& nd = next->design;
  const grid::GCellGrid& grid = nd.grid();
  const float via_beta = options_.context.via_beta;
  const std::size_t net_count = nd.net_count();
  stats.routable_nets = nd.routable_nets().size();
  std::vector<float> cap = compute_capacities(*next);
  const std::vector<float>& cap_old = capacities_;

  // ---- 2. affected-net closure --------------------------------------------
  util::Timer closure_timer;
  if (DGR_FAULT_POINT("eco.closure")) {
    return Status(StatusCode::kFaultInjected, "injected eco closure fault");
  }
  eval::RouteSolution merged;
  std::vector<const eval::NetRoute*> prior_route(net_count, nullptr);
  std::vector<std::ptrdiff_t> new_to_old(net_count, -1);
  {
    DGR_TRACE_SCOPE("eco.closure");
    for (std::size_t old = 0; old < effect.old_to_new.size(); ++old) {
      const std::ptrdiff_t idx = effect.old_to_new[old];
      if (idx >= 0) new_to_old[static_cast<std::size_t>(idx)] =
          static_cast<std::ptrdiff_t>(old);
    }
    for (const eval::NetRoute& net : solution_.nets) {
      const std::ptrdiff_t idx = effect.old_to_new[net.design_net];
      if (idx >= 0) prior_route[static_cast<std::size_t>(idx)] = &net;
    }
  }
  std::vector<char> dirty(net_count, 0);
  for (const std::size_t idx : effect.dirty) dirty[idx] = 1;

  // Live demand of the surviving clean routes (dirty geometry is stale —
  // moved pins — or about to be rerouted, so it never enters the map).
  grid::DemandMap demand(grid);
  for (std::size_t idx = 0; idx < net_count; ++idx) {
    if (prior_route[idx] != nullptr && !dirty[idx]) {
      eval::RouteSolution::apply_net(demand, nd, *prior_route[idx], via_beta, +1.0);
    }
  }

  {
    DGR_TRACE_SCOPE("eco.closure");
    // Legality closure, run to fixpoint: a clean net joins when its route
    // crosses an edge the mutation made *newly* overflowed — capacity
    // decreased, the surviving clean demand exceeds the new capacity, and
    // it did not exceed the old one. Pre-existing congestion (overflowed
    // under both capacity sets) stays the clean nets' business: ripping it
    // up would turn every ECO into a global rip-up-and-reroute.
    bool changed = true;
    while (changed && stats.closure_rounds < kMaxClosureRounds) {
      ++stats.closure_rounds;
      changed = false;
      std::vector<std::size_t> round;  // snapshot semantics: order-fair
      for (std::size_t idx = 0; idx < net_count; ++idx) {
        if (dirty[idx] || prior_route[idx] == nullptr) continue;
        bool hit = false;
        for (const dag::PatternPath& path : prior_route[idx]->paths) {
          for (const grid::EdgeId e : path.edges(grid)) {
            const auto ei = static_cast<std::size_t>(e);
            const double d = demand.demand(e);
            if (cap[ei] < cap_old[ei] - kCapEps && d > cap[ei] + kOverflowEps &&
                d <= cap_old[ei] + kOverflowEps) {
              hit = true;
              break;
            }
          }
          if (hit) break;
        }
        if (hit) round.push_back(idx);
      }
      for (const std::size_t idx : round) {
        dirty[idx] = 1;
        eval::RouteSolution::apply_net(demand, nd, *prior_route[idx], via_beta, -1.0);
        changed = true;
      }
    }

    // Opportunity closure: a substantial capacity gain (a lifted or moved
    // blockage) invites nets whose pin box spans the freed edges to re-route
    // through the region. One pass; no fixpoint needed (uncommits only).
    std::vector<grid::EdgeId> freed;
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      if (cap[ei] > cap_old[ei] + kOpportunityMinGain) freed.push_back(e);
    }
    if (!freed.empty()) {
      for (const std::size_t idx : nd.routable_nets()) {
        if (dirty[idx] || prior_route[idx] == nullptr) continue;
        const geom::Rect box = geom::Rect::bounding_box(nd.net(idx).pins);
        for (const grid::EdgeId e : freed) {
          const auto [a, b] = grid.edge_cells(e);
          if (box.contains(a) && box.contains(b)) {
            dirty[idx] = 1;
            eval::RouteSolution::apply_net(demand, nd, *prior_route[idx], via_beta, -1.0);
            break;
          }
        }
      }
    }
  }

  std::vector<std::size_t> delta;  // routable closure, rerouted below
  for (const std::size_t idx : nd.routable_nets()) {
    if (dirty[idx]) delta.push_back(idx);
  }
  stats.closure_dirty = delta.size();
  stats.dirty_fraction =
      stats.routable_nets == 0
          ? 0.0
          : static_cast<double>(delta.size()) / static_cast<double>(stats.routable_nets);
  stats.closure_seconds = closure_timer.seconds();
  obs::metrics().counter("eco.dirty_nets").add(static_cast<std::int64_t>(delta.size()));

  // ---- 3. dirty-fraction fallback -----------------------------------------
  if (stats.dirty_fraction > options_.full_reroute_threshold) {
    DGR_LOG_INFO("eco: closure %.0f%% of nets > threshold %.0f%%; full reroute",
                 100.0 * stats.dirty_fraction, 100.0 * options_.full_reroute_threshold);
    return full_reroute(std::move(next), std::move(cap), stats, total);
  }

  // ---- 4. delta route through the registry --------------------------------
  pipeline::RouterStats router_stats;
  eval::RouteSolution delta_solution;
  design::Design sub_design;
  if (!delta.empty()) {
    DGR_TRACE_SCOPE("eco.delta_route");
    // Heaviest (timing-critical) classes route first; index order breaks
    // ties so the sub-design is a pure function of the closure.
    std::stable_sort(delta.begin(), delta.end(),
                     [&](std::size_t a, std::size_t b) {
                       const float wa = next->net_weight(a);
                       const float wb = next->net_weight(b);
                       if (wa != wb) return wa > wb;
                       return a < b;
                     });
    std::vector<design::Net> sub_nets;
    sub_nets.reserve(delta.size());
    for (const std::size_t idx : delta) sub_nets.push_back(nd.net(idx));
    sub_design = design::Design("eco_delta", grid, std::move(sub_nets));

    // The sub-problem's capacities are the residuals the clean nets leave.
    std::vector<float> residual(cap);
    for (std::size_t ei = 0; ei < residual.size(); ++ei) {
      residual[ei] = std::max(
          0.0f, residual[ei] - static_cast<float>(
                                   demand.demand(static_cast<grid::EdgeId>(ei))));
    }
    pipeline::ContextOptions copts = options_.context;
    copts.capacities = std::move(residual);
    // Per-apply deterministic stream: repeated ECOs draw fresh noise.
    copts.seed = options_.context.seed + static_cast<std::uint64_t>(applied_) + 1;
    pipeline::RoutingContext subctx(sub_design, copts);

    // Previous routes of closure nets whose pins did not change are valid
    // geometry; routers with warm-start support resume from them.
    eval::RouteSolution warm;
    warm.design = &sub_design;
    for (std::size_t k = 0; k < delta.size(); ++k) {
      const std::size_t idx = delta[k];
      const std::ptrdiff_t old = new_to_old[idx];
      if (old < 0 || prior_route[idx] == nullptr) continue;
      if (nd.net(idx).pins != solution_.design->net(static_cast<std::size_t>(old)).pins) {
        continue;
      }
      warm.nets.push_back({k, prior_route[idx]->paths});
    }
    if (!warm.nets.empty()) subctx.set_warm_start(std::move(warm));

    const std::unique_ptr<pipeline::Router> router =
        pipeline::make_router(options_.router, options_.router_options);
    if (router == nullptr) {
      return Status(StatusCode::kNotFound,
                    "eco: no router registered under '" + options_.router + "'");
    }
    util::Timer route_timer;
    try {
      delta_solution = router->route(subctx);
    } catch (const std::exception& e) {
      return Status(StatusCode::kInternal,
                    "eco: delta route failed: " + std::string(e.what()));
    }
    stats.route_seconds = route_timer.seconds();
    router_stats = router->stats();
    if (!router_stats.status.ok()) return router_stats.status;
  }

  // ---- 5. merge ------------------------------------------------------------
  merged.design = &nd;
  std::vector<const std::vector<dag::PatternPath>*> route_of(net_count, nullptr);
  for (const std::size_t idx : nd.routable_nets()) {
    if (!dirty[idx] && prior_route[idx] != nullptr) {
      route_of[idx] = &prior_route[idx]->paths;
    }
  }
  for (const eval::NetRoute& net : delta_solution.nets) {
    if (net.design_net < delta.size()) {
      route_of[delta[net.design_net]] = &net.paths;
    }
  }
  for (const std::size_t idx : nd.routable_nets()) {
    // A dropped net becomes an empty route the validation gate rebuilds.
    merged.nets.push_back(
        {idx, route_of[idx] != nullptr ? *route_of[idx]
                                       : std::vector<dag::PatternPath>{}});
  }
  return finalize(std::move(next), std::move(cap), std::move(merged),
                  std::move(router_stats), std::move(stats), total);
}

Result<EcoResult> EcoEngine::full_reroute(std::unique_ptr<design::DesignState> next,
                                          std::vector<float> cap, EcoStats stats,
                                          util::Timer& total) {
  DGR_TRACE_SCOPE("eco.full_reroute");
  obs::metrics().counter("eco.full_reroutes").add(1);
  stats.full_reroute = true;
  pipeline::ContextOptions copts = options_.context;
  copts.capacities = cap;
  pipeline::RoutingContext ctx(next->design, copts);
  pipeline::PipelineOptions popts;
  popts.validate = false;  // finalize() runs the single validation gate
  pipeline::Pipeline pipe(ctx, popts);
  util::Timer route_timer;
  pipeline::PipelineResult result =
      pipe.run(options_.router, options_.router_options,
               pipeline::StagePlan{.maze_refine = false, .layer_assign = false});
  stats.route_seconds = route_timer.seconds();
  if (result.solution.design == nullptr) {
    // Nothing routable came back (unknown router, un-degradable failure):
    // surface the typed status, keep the pre-mutation state.
    return result.stats.status.ok()
               ? Status(StatusCode::kInternal, "eco: full reroute returned no solution")
               : result.stats.status;
  }
  // Re-home the solution onto the state the engine is about to commit.
  eval::RouteSolution merged;
  merged.design = &next->design;
  merged.nets = std::move(result.solution.nets);
  return finalize(std::move(next), std::move(cap), std::move(merged),
                  std::move(result.stats), std::move(stats), total);
}

Result<EcoResult> EcoEngine::finalize(std::unique_ptr<design::DesignState> next,
                                      std::vector<float> cap,
                                      eval::RouteSolution merged,
                                      pipeline::RouterStats router_stats,
                                      EcoStats stats, util::Timer& total) {
  DGR_TRACE_SCOPE("eco.merge");
  if (DGR_FAULT_POINT("eco.recommit")) {
    // Fires before any member mutation: the engine still holds the
    // pre-mutation state, capacities, and solution.
    return Status(StatusCode::kFaultInjected, "injected eco recommit fault");
  }
  util::Timer merge_timer;
  EcoResult result;
  result.router_stats = std::move(router_stats);

  pipeline::ContextOptions copts = options_.context;
  copts.capacities = cap;
  pipeline::RoutingContext ctx(next->design, copts);
  ctx.reset_demand();
  ctx.commit(merged);
  stats.repaired_nets =
      pipeline::run_validation_gate(ctx, merged, result.validation).value_or(0);
  result.metrics = ctx.evaluate(merged);
  result.weighted_overflow = ctx.weighted_overflow(merged);
  result.nets_with_overflow = ctx.nets_with_overflow(merged);

  stats.merge_seconds = merge_timer.seconds();
  stats.total_seconds = total.seconds();
  result.stats = stats;

  // ---- transactional commit ------------------------------------------------
  state_ = std::move(next);
  capacities_ = std::move(cap);
  solution_ = std::move(merged);
  ++applied_;
  return result;
}

}  // namespace dgr::eco
