#include "design/mutate.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dgr::design {

namespace {

using geom::Coord;
using geom::Point;
using geom::Rect;
using util::Rng;

/// splitmix64 step — the same mixer Rng seeds with, reused so net classing
/// is a pure function of (seed, index) without burning generator state.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Coord clamp_coord(std::int64_t v, int extent) {
  return static_cast<Coord>(std::clamp<std::int64_t>(v, 0, extent - 1));
}

/// Deterministic class for one net: ~80% default, ~12% clock, ~8% critical.
int draw_class(std::uint64_t seed, std::size_t net) {
  const std::uint64_t h = mix(seed ^ mix(static_cast<std::uint64_t>(net)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < 0.80) return 0;
  if (u < 0.92) return 1;
  return 2;
}

/// How many nets a fraction-of-routable draw touches (at least one).
std::size_t fraction_count(const DesignState& state, double fraction) {
  const std::size_t routable = state.design.routable_nets().size();
  const auto n = static_cast<std::size_t>(std::llround(fraction * routable));
  return std::max<std::size_t>(1, std::min(n, std::max<std::size_t>(1, routable)));
}

/// Draws `count` distinct routable-net indices, ascending.
std::vector<std::size_t> draw_nets(const DesignState& state, std::size_t count,
                                   Rng& rng) {
  const auto& routable = state.design.routable_nets();
  if (routable.empty()) return {};
  count = std::min(count, routable.size());
  // Seeded partial Fisher-Yates over a copy of the routable list.
  std::vector<std::size_t> pool = routable;
  std::vector<std::size_t> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
    picked.push_back(pool[i]);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

Rect draw_rect(const GCellGrid& grid, double span, Rng& rng) {
  const int w = grid.width();
  const int h = grid.height();
  const int sw = std::max(1, static_cast<int>(std::lround(span * w)));
  const int sh = std::max(1, static_cast<int>(std::lround(span * h)));
  const auto x0 = rng.uniform_int(0, std::max(0, w - sw));
  const auto y0 = rng.uniform_int(0, std::max(0, h - sh));
  return Rect{{clamp_coord(x0, w), clamp_coord(y0, h)},
              {clamp_coord(x0 + sw - 1, w), clamp_coord(y0 + sh - 1, h)}};
}

}  // namespace

std::vector<float> DesignState::capacities(const std::vector<float>& base) const {
  std::vector<float> cap = base.empty() ? design.capacities() : base;
  const GCellGrid& grid = design.grid();
  for (const Blockage& b : blockages) {
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      if (b.covers_edge(grid, e)) {
        cap[static_cast<std::size_t>(e)] *= std::max(0.0f, b.scale);
      }
    }
  }
  return cap;
}

DesignState make_design_state(Design design, std::uint64_t seed) {
  DesignState state;
  state.net_class.resize(design.net_count());
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    state.net_class[i] = draw_class(seed, i);
  }
  state.class_weight = {1.0f, 2.0f, 4.0f};  // default / clock / critical
  state.design = std::move(design);
  return state;
}

// ---------------------------------------------------------------------------
// apply_mutation
// ---------------------------------------------------------------------------

Result<MutationEffect> apply_mutation(DesignState& state, const Mutation& m) {
  const GCellGrid& grid = state.design.grid();
  const std::size_t old_count = state.design.net_count();
  MutationEffect effect;
  effect.old_to_new.resize(old_count);
  for (std::size_t i = 0; i < old_count; ++i) {
    effect.old_to_new[i] = static_cast<std::ptrdiff_t>(i);
  }

  auto bad = [](const std::string& what) {
    return Status(StatusCode::kInvalidArgument, "apply_mutation: " + what);
  };
  auto check_pins = [&](const std::vector<Point>& pins) -> bool {
    if (pins.empty()) return false;
    for (const Point& p : pins) {
      if (!grid.in_bounds(p)) return false;
    }
    return true;
  };

  switch (m.kind) {
    case MutationKind::kMovePins: {
      if (m.nets.size() != m.new_pins.size()) {
        return bad("move_pins needs one pin list per target net");
      }
      std::vector<Net> nets(state.design.nets());
      for (std::size_t k = 0; k < m.nets.size(); ++k) {
        const std::size_t idx = m.nets[k];
        if (idx >= old_count) return bad("move_pins net index out of range");
        if (!check_pins(m.new_pins[k])) return bad("move_pins pin list invalid");
        nets[idx].pins = m.new_pins[k];
        effect.dirty.push_back(idx);
      }
      state.design = Design(state.design.name(), grid, std::move(nets));
      effect.capacity_changed = true;  // pin density feeds Eq. 1
      break;
    }
    case MutationKind::kAddNets: {
      if (m.added.empty()) return bad("add_nets with no nets");
      if (!m.added_class.empty() && m.added_class.size() != m.added.size()) {
        return bad("add_nets class list must parallel the net list");
      }
      std::vector<Net> nets(state.design.nets());
      std::vector<int> classes(state.net_class);
      for (std::size_t k = 0; k < m.added.size(); ++k) {
        if (!check_pins(m.added[k].pins)) return bad("add_nets pin list invalid");
        effect.dirty.push_back(nets.size());
        nets.push_back(m.added[k]);
        classes.push_back(m.added_class.empty() ? 0 : m.added_class[k]);
      }
      state.design = Design(state.design.name(), grid, std::move(nets));
      state.net_class = std::move(classes);
      effect.capacity_changed = true;
      break;
    }
    case MutationKind::kRemoveNets: {
      if (m.nets.empty()) return bad("remove_nets with no targets");
      std::vector<bool> removed(old_count, false);
      for (const std::size_t idx : m.nets) {
        if (idx >= old_count) return bad("remove_nets net index out of range");
        removed[idx] = true;
      }
      std::vector<Net> nets;
      std::vector<int> classes;
      nets.reserve(old_count);
      classes.reserve(old_count);
      std::ptrdiff_t next = 0;
      for (std::size_t i = 0; i < old_count; ++i) {
        if (removed[i]) {
          effect.old_to_new[i] = -1;
          continue;
        }
        effect.old_to_new[i] = next++;
        nets.push_back(state.design.net(i));
        classes.push_back(state.net_class[i]);
      }
      state.design = Design(state.design.name(), grid, std::move(nets));
      state.net_class = std::move(classes);
      effect.capacity_changed = true;
      break;
    }
    case MutationKind::kAddBlockage: {
      if (!grid.in_bounds(m.blockage.rect.lo) || !grid.in_bounds(m.blockage.rect.hi)) {
        return bad("add_blockage rect outside the grid");
      }
      state.blockages.push_back(m.blockage);
      effect.capacity_changed = true;
      break;
    }
    case MutationKind::kMoveBlockage: {
      if (m.blockage_index >= state.blockages.size()) {
        return bad("move_blockage index out of range");
      }
      if (!grid.in_bounds(m.blockage.rect.lo) || !grid.in_bounds(m.blockage.rect.hi)) {
        return bad("move_blockage rect outside the grid");
      }
      state.blockages[m.blockage_index] = m.blockage;
      effect.capacity_changed = true;
      break;
    }
    case MutationKind::kRemoveBlockage: {
      if (m.blockage_index >= state.blockages.size()) {
        return bad("remove_blockage index out of range");
      }
      state.blockages.erase(state.blockages.begin() +
                            static_cast<std::ptrdiff_t>(m.blockage_index));
      effect.capacity_changed = true;
      break;
    }
    case MutationKind::kReweightClass: {
      if (m.net_class < 0 ||
          m.net_class >= static_cast<int>(state.class_weight.size())) {
        return bad("reweight_class class id out of range");
      }
      if (!(m.new_weight > 0.0f)) return bad("reweight_class weight must be positive");
      state.class_weight[static_cast<std::size_t>(m.net_class)] = m.new_weight;
      // Every routable net of the class re-enters routing with its new
      // priority; that is the mutation's observable effect.
      for (const std::size_t i : state.design.routable_nets()) {
        if (state.net_class[i] == m.net_class) effect.dirty.push_back(i);
      }
      break;
    }
  }
  return effect;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

Mutation make_move_pins(const DesignState& state, const MutationParams& p, Rng& rng) {
  const GCellGrid& grid = state.design.grid();
  Mutation m;
  m.kind = MutationKind::kMovePins;
  m.nets = draw_nets(state, fraction_count(state, p.move_fraction), rng);
  const double rx = std::max(1.0, p.move_jitter * grid.width());
  const double ry = std::max(1.0, p.move_jitter * grid.height());
  for (const std::size_t idx : m.nets) {
    std::vector<Point> pins = state.design.net(idx).pins;
    // Jitter each pin independently; clamping keeps the net in the grid
    // and Design's constructor re-dedupes collapsed pins.
    for (Point& pin : pins) {
      pin.x = clamp_coord(pin.x + std::llround(rng.uniform(-rx, rx)), grid.width());
      pin.y = clamp_coord(pin.y + std::llround(rng.uniform(-ry, ry)), grid.height());
    }
    m.new_pins.push_back(std::move(pins));
  }
  m.label = "move_pins:" + std::to_string(m.nets.size());
  return m;
}

Mutation make_add_nets(const DesignState& state, const MutationParams& p, Rng& rng) {
  const GCellGrid& grid = state.design.grid();
  Mutation m;
  m.kind = MutationKind::kAddNets;
  const std::size_t count = fraction_count(state, p.add_fraction);
  for (std::size_t k = 0; k < count; ++k) {
    Net net;
    // Name collisions with removed-then-readded nets are harmless to the
    // Design model; a monotone tag keeps names unique within a sequence.
    net.name = "eco_add_" + std::to_string(rng.next_u64() & 0xffffff);
    const auto cx = rng.uniform_int(0, grid.width() - 1);
    const auto cy = rng.uniform_int(0, grid.height() - 1);
    const double span = std::max(2.0, 0.2 * std::min(grid.width(), grid.height()));
    const int pins = 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < pins; ++i) {
      net.pins.push_back(
          Point{clamp_coord(cx + std::llround(rng.uniform(-span, span)), grid.width()),
                clamp_coord(cy + std::llround(rng.uniform(-span, span)), grid.height())});
    }
    // Guarantee the net is routable (two distinct cells).
    if (geom::dedupe_points(net.pins).size() < 2) {
      Point q = net.pins.front();
      q.x = static_cast<Coord>(q.x + 1 < grid.width() ? q.x + 1 : q.x - 1);
      net.pins.push_back(q);
    }
    m.added.push_back(std::move(net));
    m.added_class.push_back(draw_class(rng.next_u64(), k));
  }
  m.label = "add_nets:" + std::to_string(m.added.size());
  return m;
}

Mutation make_remove_nets(const DesignState& state, const MutationParams& p, Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kRemoveNets;
  m.nets = draw_nets(state, fraction_count(state, p.remove_fraction), rng);
  m.label = "remove_nets:" + std::to_string(m.nets.size());
  return m;
}

Mutation make_add_blockage(const DesignState& state, const MutationParams& p, Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kAddBlockage;
  m.blockage = Blockage{draw_rect(state.design.grid(), p.blockage_span, rng),
                        p.blockage_scale};
  m.label = "add_blockage";
  return m;
}

Mutation make_remove_blockage(const DesignState& state, const MutationParams&,
                              Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kRemoveBlockage;
  m.blockage_index = state.blockages.empty()
                         ? 0
                         : static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(state.blockages.size()) - 1));
  m.label = "remove_blockage:" + std::to_string(m.blockage_index);
  return m;
}

Mutation make_reweight_class(const DesignState& state, const MutationParams& p,
                             Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kReweightClass;
  const auto classes = static_cast<std::int64_t>(state.class_weight.size());
  m.net_class = classes > 0 ? static_cast<int>(rng.uniform_int(0, classes - 1)) : 0;
  m.new_weight = static_cast<float>(
      rng.uniform(p.reweight_min, std::max<double>(p.reweight_min + 1e-3, p.reweight_max)));
  m.label = "reweight_class:" + std::to_string(m.net_class);
  return m;
}

Mutation make_blockage_walk_step(const DesignState& state, const MutationParams& p,
                                 std::uint64_t seed, int step) {
  const GCellGrid& grid = state.design.grid();
  const int w = grid.width();
  const int h = grid.height();
  const int sw = std::max(1, static_cast<int>(std::lround(p.blockage_span * w)));
  const int sh = std::max(1, static_cast<int>(std::lround(p.blockage_span * h)));
  // Deterministic orbit: the obstacle circles the grid centre with a seeded
  // phase, visiting a different position each step.
  const double phase = static_cast<double>(mix(seed) >> 11) * 0x1.0p-53 * 6.28318530718;
  const double angle = phase + 0.9 * step;
  const double cx = 0.5 * w + 0.3 * w * std::cos(angle);
  const double cy = 0.5 * h + 0.3 * h * std::sin(angle);
  const Coord x0 = clamp_coord(std::llround(cx - 0.5 * sw), std::max(1, w - sw + 1));
  const Coord y0 = clamp_coord(std::llround(cy - 0.5 * sh), std::max(1, h - sh + 1));
  Mutation m;
  m.blockage = Blockage{Rect{{x0, y0},
                             {clamp_coord(x0 + sw - 1, w), clamp_coord(y0 + sh - 1, h)}},
                        p.blockage_scale};
  if (step == 0 || state.blockages.empty()) {
    m.kind = MutationKind::kAddBlockage;
    m.label = "blockage_walk:add";
  } else {
    m.kind = MutationKind::kMoveBlockage;
    m.blockage_index = state.blockages.size() - 1;
    m.label = "blockage_walk:step" + std::to_string(step);
  }
  return m;
}

Mutation generate_mutation(const DesignState& state, const MutationParams& p,
                           Rng& rng) {
  for (;;) {
    const auto kind = static_cast<MutationKind>(rng.uniform_int(0, 6));
    switch (kind) {
      case MutationKind::kMovePins:
        if (state.design.routable_nets().empty()) continue;
        return make_move_pins(state, p, rng);
      case MutationKind::kAddNets:
        return make_add_nets(state, p, rng);
      case MutationKind::kRemoveNets:
        // Keep a floor of nets so long sequences cannot hollow the design.
        if (state.design.routable_nets().size() < 8) continue;
        return make_remove_nets(state, p, rng);
      case MutationKind::kAddBlockage:
        return make_add_blockage(state, p, rng);
      case MutationKind::kMoveBlockage:
        if (state.blockages.empty()) continue;
        return make_blockage_walk_step(state, p, rng.next_u64(), 1);
      case MutationKind::kRemoveBlockage:
        if (state.blockages.empty()) continue;
        return make_remove_blockage(state, p, rng);
      case MutationKind::kReweightClass:
        return make_reweight_class(state, p, rng);
    }
  }
}

}  // namespace dgr::design
