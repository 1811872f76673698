#pragma once
// Routing-tree candidate generation (Section 4.2).
//
// Per net the paper seeds the DAG forest with the FLUTE RSMT plus CUGR2's
// congestion-fine-tuned variant, and notes that further generators (SALT,
// TreeNet, ...) plug in the same way. We generate, in order:
//   0. the RSMT from rsmt::RsmtBuilder (FLUTE stand-in),
//   1. a congestion-shifted copy: each Steiner node moves (within a small
//      window) to the least-congested nearby cell under a probabilistic
//      pre-routing congestion estimate (CUGR2-style fine-tuning),
//   2. optionally a trunk/star topology (median Steiner point) for diversity.
// Candidates with identical canonical edge sets are deduplicated.

#include <vector>

#include "design/design.hpp"
#include "rsmt/builder.hpp"
#include "rsmt/salt.hpp"

namespace dgr::dag {

using design::Design;
using rsmt::SteinerTree;

/// Pre-routing probabilistic congestion estimate: every routable net spreads
/// one unit of expected wire demand uniformly over the edges inside its pin
/// bounding box (the classic bounding-box congestion model used by
/// placement/routing estimators). Returns per-edge expected demand.
std::vector<float> estimate_congestion(const Design& design);

struct TreeCandidateOptions {
  bool congestion_shifted = true;  ///< emit candidate 1
  bool trunk_topology = false;     ///< emit candidate 2
  bool salt_topology = false;      ///< emit candidate 3: shallow-light tree

  bool operator==(const TreeCandidateOptions&) const = default;
};

class TreeCandidateGenerator {
 public:
  TreeCandidateGenerator(const Design& design, TreeCandidateOptions opts = {});

  /// Tree candidates for net `net_idx` (must be routable), deduplicated,
  /// candidate 0 always the plain RSMT.
  std::vector<SteinerTree> generate(std::size_t net_idx) const;

  const std::vector<float>& congestion() const { return congestion_; }
  const Design& design() const { return design_; }

 private:
  SteinerTree shift_steiner_nodes(const SteinerTree& tree) const;
  SteinerTree trunk_tree(const std::vector<geom::Point>& pins) const;
  /// Congestion seen around a cell (average over incident edges).
  float cell_congestion(geom::Point p) const;

  const Design& design_;
  TreeCandidateOptions opts_;
  rsmt::RsmtBuilder builder_;
  std::vector<float> congestion_;
};

}  // namespace dgr::dag
