#include "design/design.hpp"

#include <stdexcept>

namespace dgr::design {

Design::Design(std::string name, GCellGrid grid, std::vector<Net> nets)
    : name_(std::move(name)), grid_(std::move(grid)), nets_(std::move(nets)) {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    Net& net = nets_[i];
    if (net.pins.empty()) throw std::invalid_argument("Design: net with no pins");
    net.pins = geom::dedupe_points(std::move(net.pins));
    for (const Point& p : net.pins) {
      if (!grid_.in_bounds(p)) throw std::invalid_argument("Design: pin out of grid");
    }
    if (net.pins.size() >= 2) routable_.push_back(i);
  }
}

std::vector<float> Design::pin_density() const {
  std::vector<float> density(static_cast<std::size_t>(grid_.cell_count()), 0.0f);
  for (const Net& net : nets_) {
    for (const Point& p : net.pins) {
      density[static_cast<std::size_t>(grid_.cell_id(p))] += 1.0f;
    }
  }
  return density;
}

std::vector<float> Design::local_net_density() const {
  std::vector<float> density(static_cast<std::size_t>(grid_.cell_count()), 0.0f);
  for (const Net& net : nets_) {
    if (net.is_local()) {
      density[static_cast<std::size_t>(grid_.cell_id(net.pins.front()))] += 1.0f;
    }
  }
  return density;
}

std::vector<float> Design::capacities() const {
  grid::CapacityInputs in;
  in.pin_density = pin_density();
  in.local_nets = local_net_density();
  in.beta_default = kCapacityBeta;
  return grid::compute_capacities(grid_, in);
}

std::int64_t Design::total_hpwl() const {
  std::int64_t total = 0;
  for (const Net& net : nets_) total += geom::Rect::bounding_box(net.pins).hpwl();
  return total;
}

}  // namespace dgr::design
