#pragma once
/// \file
/// \brief 2D routing solutions: the common output format of DGR and every
/// baseline router in this repo, and the input to layer assignment / maze
/// refinement.

#include <vector>

#include "dag/path.hpp"
#include "design/design.hpp"

namespace dgr::eval {

/// One net's routed 2D geometry: pattern paths covering its tree edges.
struct NetRoute {
  std::size_t design_net = 0;  ///< index into design.nets()
  std::vector<dag::PatternPath> paths;
};

struct RouteSolution {
  const design::Design* design = nullptr;
  std::vector<NetRoute> nets;  ///< one entry per routed (routable) net

  /// Accumulates demand for all paths: weight 1 per wire crossing plus
  /// via_beta/2 on both edges at each bend (same model as the DAG forest).
  grid::DemandMap demand(float via_beta = 0.5f) const;

  /// Adds/removes a single net's contribution (rip-up & reroute support).
  static void apply_net(grid::DemandMap& dm, const design::Design& design,
                        const NetRoute& net, float via_beta, double sign);

  /// Warm start: copies every net of `prior` that has paths into its slot
  /// here (slots follow design->routable_nets(); `nets` must already be
  /// sized to them) and charges it to `dm`. Returns one flag per slot, set
  /// where a net was seeded. Seeds nothing unless `prior` is a solution of
  /// this solution's design.
  std::vector<char> seed_from(const RouteSolution* prior, grid::DemandMap& dm,
                              float via_beta);

  /// Total wirelength (sum of path lengths) and bend count.
  std::int64_t total_wirelength() const;
  std::int64_t total_bends() const;

  /// Validity: every net's paths form a connected subgraph of the grid that
  /// touches all of the net's pins.
  bool connects_all_pins() const;
};

}  // namespace dgr::eval
