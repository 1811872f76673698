#pragma once
/// \file
/// Post-route validation gate: the pipeline's last line of defence before a
/// solution reaches evaluation.
///
/// validate_solution() checks, per net, that the routed geometry is legal
/// (in-bounds, axis-aligned legs) and pin-connected, and that the context's
/// live DemandMap still matches the solution's recomputed demand (catches
/// commit/uncommit bookkeeping drift). repair_broken_nets() rebuilds broken
/// nets with a congestion-priced maze reroute (post::maze_reroute_net) so a
/// router bug or an injected fault degrades to a repaired solution instead
/// of poisoning the Table 2/3 metrics downstream.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "eval/solution.hpp"
#include "pipeline/context.hpp"
#include "post/maze_refine.hpp"
#include "util/status.hpp"

namespace dgr::pipeline {

struct ValidationReport {
  /// OK, or kValidationFailed with a summary of what is wrong.
  Status status;
  /// Slots into sol.nets whose geometry is illegal, disconnected, or empty
  /// while the net has >= 2 pins.
  std::vector<std::size_t> broken_nets;
  /// Whether the context's live demand matches the solution's recomputed
  /// demand within tolerance.
  bool demand_consistent = true;
  double max_demand_error = 0.0;
  std::int64_t checked_nets = 0;
};

/// Validates `sol` against the context's design and live demand. Read-only:
/// touches neither the solution nor the context.
ValidationReport validate_solution(const RoutingContext& ctx,
                                   const eval::RouteSolution& sol);

/// Rebuilds each net in `broken` (slots into sol.nets) with a
/// congestion-priced maze reroute and returns how many were actually fixed.
/// Expects the context's live demand to match `sol` on entry (resync first
/// if the report said otherwise) and keeps it in sync throughout; nets whose
/// reroute fails keep their old geometry. The reroute prices with fixed
/// weights, so `options` is not read.
std::int64_t repair_broken_nets(RoutingContext& ctx, eval::RouteSolution& sol,
                                const std::vector<std::size_t>& broken,
                                const post::MazeRefineOptions& options = {});

/// The validation gate every routed solution passes before evaluation:
/// validate_solution(), a resync of the live demand when it drifted, and,
/// when nets are broken, repair_broken_nets() and a second validation.
/// `report` receives the last validation. Returns how many nets the repair
/// rebuilt, or nullopt when no net was broken and no repair ran.
std::optional<std::int64_t> run_validation_gate(RoutingContext& ctx,
                                                eval::RouteSolution& sol,
                                                ValidationReport& report);

}  // namespace dgr::pipeline
