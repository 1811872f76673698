#include "pipeline/context.hpp"

#include <utility>

namespace dgr::pipeline {

RoutingContext::RoutingContext(const design::Design& design, ContextOptions options)
    : design_(&design),
      options_(std::move(options)),
      demand_(design.grid()),
      rng_(options_.seed) {
  capacities_ = options_.capacities.empty() ? design.capacities() : options_.capacities;
}

void RoutingContext::commit(const eval::NetRoute& net, double sign) {
  eval::RouteSolution::apply_net(demand_, *design_, net, options_.via_beta, sign);
}

void RoutingContext::commit(const eval::RouteSolution& sol, double sign) {
  for (const eval::NetRoute& net : sol.nets) commit(net, sign);
}

void RoutingContext::set_warm_start(eval::RouteSolution prior) {
  warm_start_ = std::move(prior);
  has_warm_start_ = true;
  reset_demand();
  commit(warm_start_);
}

void RoutingContext::clear_warm_start() {
  warm_start_ = {};
  has_warm_start_ = false;
}

const dag::DagForest& RoutingContext::forest(const dag::ForestOptions& options) {
  dag::ForestOptions effective = options;
  effective.via_demand_beta = options_.via_beta;
  if (forest_ == nullptr || forest_options_ != effective) {
    forest_ = std::make_unique<dag::DagForest>(dag::DagForest::build(*design_, effective));
    forest_options_ = effective;
  }
  return *forest_;
}

bool RoutingContext::has_forest(const dag::ForestOptions& options) const {
  dag::ForestOptions effective = options;
  effective.via_demand_beta = options_.via_beta;
  return forest_ != nullptr && forest_options_ == effective;
}

eval::Metrics RoutingContext::evaluate(const eval::RouteSolution& sol) const {
  return eval::compute_metrics(sol, capacities_, options_.via_beta);
}

double RoutingContext::weighted_overflow(const eval::RouteSolution& sol) const {
  return eval::weighted_overflow(sol, capacities_, options_.via_beta);
}

std::int64_t RoutingContext::nets_with_overflow(const eval::RouteSolution& sol) const {
  return eval::nets_with_overflow(sol, capacities_, options_.via_beta);
}

}  // namespace dgr::pipeline
