#include "pipeline/validate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "dag/path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace dgr::pipeline {

namespace {

/// Legal geometry: every path has >= 2 waypoints, stays in-bounds, and each
/// leg is axis-aligned (direction legality — a diagonal leg has no g-cell
/// edge sequence). Monotonicity is NOT required: maze detours are legal.
bool net_geometry_legal(const eval::NetRoute& net, const grid::GCellGrid& grid) {
  for (const dag::PatternPath& path : net.paths) {
    if (!dag::path_is_valid(path, grid, /*require_monotone=*/false)) return false;
  }
  return true;
}

/// Pin connectivity of a single net, reusing the solution-level union-find
/// check on a one-net view (the paths vector is shared, not copied).
bool net_connected(const design::Design& design, const eval::NetRoute& net) {
  eval::RouteSolution one;
  one.design = &design;
  one.nets.push_back(net);
  return one.connects_all_pins();
}

}  // namespace

ValidationReport validate_solution(const RoutingContext& ctx,
                                   const eval::RouteSolution& sol) {
  DGR_TRACE_SCOPE("pipeline.validate_solution");
  ValidationReport report;
  const design::Design& design = ctx.design();
  const grid::GCellGrid& grid = design.grid();

  for (std::size_t i = 0; i < sol.nets.size(); ++i) {
    ++report.checked_nets;
    const eval::NetRoute& net = sol.nets[i];
    const bool injected = DGR_FAULT_POINT("pipeline.validate");
    if (injected || !net_geometry_legal(net, grid) || !net_connected(design, net)) {
      report.broken_nets.push_back(i);
    }
  }

  // Capacity accounting: the live demand must equal the solution's demand
  // recomputed from scratch, or every stage downstream prices congestion
  // against phantom (or missing) wires.
  const grid::DemandMap expected = sol.demand(ctx.via_beta());
  const std::vector<double>& live = ctx.demand().raw();
  const std::vector<double>& want = expected.raw();
  if (live.size() != want.size()) {
    report.demand_consistent = false;
    report.max_demand_error = std::numeric_limits<double>::infinity();
  } else {
    for (std::size_t e = 0; e < live.size(); ++e) {
      report.max_demand_error =
          std::max(report.max_demand_error, std::abs(live[e] - want[e]));
    }
    report.demand_consistent = report.max_demand_error <= 1e-6;
  }

  if (!report.broken_nets.empty() || !report.demand_consistent) {
    std::string what;
    if (!report.broken_nets.empty()) {
      what += std::to_string(report.broken_nets.size()) +
              " net(s) with illegal or disconnected geometry";
    }
    if (!report.demand_consistent) {
      if (!what.empty()) what += "; ";
      what += "live demand drifted from solution demand (max error " +
              std::to_string(report.max_demand_error) + ")";
    }
    report.status = Status(StatusCode::kValidationFailed, std::move(what));
  }
  obs::metrics().counter("pipeline.validate.checked_nets").add(report.checked_nets);
  if (!report.broken_nets.empty()) {
    obs::metrics()
        .counter("pipeline.validate.broken_nets")
        .add(static_cast<std::int64_t>(report.broken_nets.size()));
  }
  return report;
}

std::int64_t repair_broken_nets(RoutingContext& ctx, eval::RouteSolution& sol,
                                const std::vector<std::size_t>& broken,
                                const post::MazeRefineOptions& /*options*/) {
  const design::Design& design = ctx.design();

  std::int64_t repaired = 0;
  for (const std::size_t slot : broken) {
    eval::NetRoute& net = sol.nets[slot];
    // Rip up the broken geometry so the reroute prices congestion without
    // the net's own (possibly bogus) contribution.
    ctx.commit(net, -1.0);
    eval::NetRoute candidate =
        post::maze_reroute_net(design, net.design_net, ctx.demand(), ctx.capacities());
    if (!candidate.paths.empty() && net_geometry_legal(candidate, design.grid()) &&
        net_connected(design, candidate)) {
      net = std::move(candidate);
      ++repaired;
    } else {
      DGR_LOG_WARN("validation gate: net %zu unrepairable", net.design_net);
    }
    // Recommit whichever geometry the net ended up with so the live demand
    // stays an exact account of the solution.
    ctx.commit(net, +1.0);
  }
  return repaired;
}

std::optional<std::int64_t> run_validation_gate(RoutingContext& ctx,
                                                eval::RouteSolution& sol,
                                                ValidationReport& report) {
  report = validate_solution(ctx, sol);
  if (!report.demand_consistent) {
    DGR_LOG_WARN("validation gate: %s; resyncing live demand",
                 report.status.to_string().c_str());
    ctx.reset_demand();
    ctx.commit(sol);
  }
  if (report.broken_nets.empty()) return std::nullopt;
  const std::int64_t repaired = repair_broken_nets(ctx, sol, report.broken_nets);
  report = validate_solution(ctx, sol);
  return repaired;
}

}  // namespace dgr::pipeline
