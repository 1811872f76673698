#pragma once
/// \file
/// Design mutations: first-class, seeded test inputs for incremental (ECO)
/// rerouting.
///
/// Real routers are re-invoked thousands of times on slightly-perturbed
/// designs. This module models that workload: a DesignState is the evolving
/// routing problem (netlist + blockage overlay + per-class routing weights),
/// a Mutation is one atomic perturbation of it, and the seeded generators
/// draw deterministic mutation sequences — including timing-critical
/// weighted net classes and moving-obstacle walks in the spirit of
/// dynamic-grid pathfinding benchmarks — so ECO tests and benches replay
/// bit-for-bit from a seed.
///
/// The netlist part of a DesignState stays a plain `Design`, so every
/// mutated state round-trips losslessly through the .dgrd format (blockages
/// and class weights are routing-side overlays, not netlist data).

#include <cstdint>
#include <string>
#include <vector>

#include "design/design.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace dgr::design {

/// A rectangular capacity overlay: every g-cell edge whose two endpoint
/// cells both fall inside `rect` has its capacity multiplied by `scale`
/// (0 = hard obstacle, 1 = no-op).
struct Blockage {
  geom::Rect rect;
  float scale = 0.0f;

  bool covers_edge(const GCellGrid& grid, grid::EdgeId e) const {
    const auto [a, b] = grid.edge_cells(e);
    return rect.contains(a) && rect.contains(b);
  }
  friend bool operator==(const Blockage&, const Blockage&) = default;
};

/// The evolving routing problem the ECO layer operates on: the immutable
/// netlist snapshot plus the routing-side overlays mutations can touch.
struct DesignState {
  Design design;
  std::vector<Blockage> blockages;
  /// Per-net class id, parallel to design.nets(); class 0 is "default".
  std::vector<int> net_class;
  /// Routing weight per class id (timing-critical classes weigh more; the
  /// ECO layer reroutes heavier classes first).
  std::vector<float> class_weight;

  float net_weight(std::size_t net) const {
    if (net >= net_class.size()) return 1.0f;
    const int c = net_class[net];
    return c >= 0 && c < static_cast<int>(class_weight.size())
               ? class_weight[static_cast<std::size_t>(c)]
               : 1.0f;
  }

  /// Per-edge capacities: `base` (Eq. 1 when empty) with every blockage's
  /// scale applied to the edges it covers.
  std::vector<float> capacities(const std::vector<float>& base = {}) const;
};

/// Wraps `design` with the standard three-class partition (default / clock
/// x2 / critical x4), assigned per net by a seeded hash so the classing is a
/// pure function of (seed, net index).
DesignState make_design_state(Design design, std::uint64_t seed = 1);

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

enum class MutationKind : int {
  kMovePins,       ///< replace the pin lists of existing nets
  kAddNets,        ///< append new nets
  kRemoveNets,     ///< erase nets (indices shift; see MutationEffect)
  kAddBlockage,    ///< append a capacity overlay
  kMoveBlockage,   ///< relocate an existing overlay (moving-obstacle step)
  kRemoveBlockage, ///< erase an overlay
  kReweightClass,  ///< change one net class's routing weight
};

/// One atomic perturbation. Only the fields of the active `kind` are read.
struct Mutation {
  MutationKind kind = MutationKind::kMovePins;
  std::string label;  ///< deterministic human-readable id for logs/benches

  // kMovePins / kRemoveNets: target nets (current design indices, ascending).
  std::vector<std::size_t> nets;
  // kMovePins: replacement pin lists, parallel to `nets`.
  std::vector<std::vector<geom::Point>> new_pins;
  // kAddNets: appended nets and their class ids (parallel; empty = class 0).
  std::vector<Net> added;
  std::vector<int> added_class;
  // kAddBlockage / kMoveBlockage destination.
  Blockage blockage;
  // kMoveBlockage / kRemoveBlockage: target overlay slot.
  std::size_t blockage_index = 0;
  // kReweightClass.
  int net_class = 0;
  float new_weight = 1.0f;
};

/// What a mutation did to the state, in terms the ECO layer needs.
struct MutationEffect {
  /// old net index -> new net index, -1 for removed nets.
  std::vector<std::ptrdiff_t> old_to_new;
  /// New-design indices of nets the mutation touched directly (moved,
  /// added, reweighted). Removed nets are gone, not dirty.
  std::vector<std::size_t> dirty;
  /// Whether edge capacities may have changed (blockage or netlist edits —
  /// pin moves shift the Eq. 1 pin-density terms too).
  bool capacity_changed = false;
};

/// Applies `m` to `state`. On success the state holds the mutated design
/// and overlays; on failure (out-of-range net/blockage/class index, pin
/// outside the grid, empty pin list) returns kInvalidArgument and leaves
/// `state` untouched.
Result<MutationEffect> apply_mutation(DesignState& state, const Mutation& m);

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

struct MutationParams {
  double move_fraction = 0.05;    ///< routable nets touched per move mutation
  double move_jitter = 0.12;      ///< pin displacement radius / grid size
  double add_fraction = 0.04;     ///< nets appended per add mutation
  double remove_fraction = 0.04;  ///< nets erased per remove mutation
  double blockage_span = 0.18;    ///< obstacle rect edge / grid size
  float blockage_scale = 0.25f;   ///< capacity multiplier inside an obstacle
  float reweight_min = 0.5f;      ///< new class weight drawn in
  float reweight_max = 4.0f;      ///<   [reweight_min, reweight_max)
};

/// Targeted generators: each draws one deterministic mutation of the named
/// kind from `rng`. All are pure functions of (state, params, rng state).
Mutation make_move_pins(const DesignState& state, const MutationParams& p, util::Rng& rng);
Mutation make_add_nets(const DesignState& state, const MutationParams& p, util::Rng& rng);
Mutation make_remove_nets(const DesignState& state, const MutationParams& p, util::Rng& rng);
Mutation make_add_blockage(const DesignState& state, const MutationParams& p, util::Rng& rng);
Mutation make_remove_blockage(const DesignState& state, const MutationParams& p,
                              util::Rng& rng);
Mutation make_reweight_class(const DesignState& state, const MutationParams& p,
                             util::Rng& rng);

/// One step of a moving-obstacle walk: step 0 drops a blockage, every later
/// step relocates it along a deterministic orbit around the grid centre.
/// The same (params, seed) sequence replays the same walk on any design.
Mutation make_blockage_walk_step(const DesignState& state, const MutationParams& p,
                                 std::uint64_t seed, int step);

/// Draws one mutation of a seeded-random applicable kind (kRemoveBlockage
/// only when an overlay exists, kRemoveNets only while nets remain, ...).
Mutation generate_mutation(const DesignState& state, const MutationParams& p,
                           util::Rng& rng);

}  // namespace dgr::design
