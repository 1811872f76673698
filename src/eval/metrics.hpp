#pragma once
/// \file
/// \brief Routing quality metrics matching the paper's reporting:
///   Tables 2/3: # g-cell edges with overflow, total wirelength, # vias;
///   Fig. 6:     weighted overflow = 10*n1 + 1000*n2 + 10000*peak_overflow;
///   Table 1:    Σ_e ReLU(d_e - cap_e).

#include <cstdint>
#include <tuple>
#include <vector>

#include "eval/solution.hpp"

namespace dgr::eval {

struct Metrics {
  std::int64_t overflow_edges = 0;  ///< edges with d > cap after 2D routing
  double total_overflow = 0.0;      ///< Σ max(0, d - cap)
  double peak_overflow = 0.0;       ///< max single-edge overflow
  std::int64_t wirelength = 0;      ///< total 2D wirelength
  std::int64_t bends = 0;           ///< turning points (via proxy before 3D)
};

/// Metrics of a 2D solution against per-edge capacities. `via_beta` matches
/// the demand model used during optimisation.
Metrics compute_metrics(const RouteSolution& sol, const std::vector<float>& capacities,
                        float via_beta = 0.5f);

/// Fig. 6 y-axis: 10*n1 + 1000*n2 + 10000*peak, where n1 = # nets crossing
/// an overflowed edge (stand-in for "nets with overflow after layer
/// assignment" when no 3D pass ran), n2 = # overflowed edges.
double weighted_overflow(const RouteSolution& sol, const std::vector<float>& capacities,
                         float via_beta = 0.5f);

/// # nets that touch at least one overflowed edge.
std::int64_t nets_with_overflow(const RouteSolution& sol,
                                const std::vector<float>& capacities,
                                float via_beta = 0.5f);

// ---- rip-up-and-reroute kit -------------------------------------------------

/// Worst overflow (demand − capacity in `dm`) over the edges `net` crosses
/// when it exceeds the 1e-6 round-off guard; 0 when the net crosses no
/// overflowed edge.
double net_overflow(const NetRoute& net, const grid::DemandMap& dm,
                    const std::vector<float>& capacities, const grid::GCellGrid& grid);

/// A net of a solution that crosses an overflowed edge.
struct OverflowedNet {
  std::size_t slot = 0;  ///< index into RouteSolution::nets
  double worst = 0.0;    ///< its net_overflow(), > 0
};

/// Every net of `sol` that crosses an overflowed edge of `dm`, in slot order.
std::vector<OverflowedNet> overflowed_nets(const RouteSolution& sol,
                                           const grid::DemandMap& dm,
                                           const std::vector<float>& capacities);

/// Snapshot score of rip-up-and-reroute loops, compared lexicographically
/// (lower is better): # overflowed edges, total overflow, wirelength.
using RerouteScore = std::tuple<std::int64_t, double, std::int64_t>;
RerouteScore reroute_score(const RouteSolution& sol, const grid::DemandMap& dm,
                           const std::vector<float>& capacities);

/// The ICCAD'19 contest weights of a route's cost, a3/a2/a1 of Eq. (3):
/// cost = 500 * overflow + 4 * via + 0.5 * wirelength. DGR's objective,
/// maze refine's acceptance test and the baselines' wire and via costs
/// all read them. Each is exact in float.
inline constexpr double kOverflowWeight = 500.0;
inline constexpr double kViaWeight = 4.0;
inline constexpr double kWirelengthWeight = 0.5;

}  // namespace dgr::eval
