// Discrete extraction (Section 4.5): trees by argmax probability (annealing
// drives these near one-hot); 2-pin paths by top-p sampling — rank candidates
// by probability, keep the smallest prefix whose cumulative probability
// passes top_p, then commit subnets in decreasing-confidence order picking
// the member of the top-p set with the least *true* incremental cost against
// the capacity left by already-committed paths.

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/solver.hpp"
#include "obs/trace.hpp"

namespace dgr::core {

eval::RouteSolution DgrSolver::extract() const {
  DGR_TRACE_SCOPE("core.extract");
  const float t_final = temperature_at(config_.iterations - 1);
  const std::vector<float> q = tree_probs(t_final);
  const std::vector<float> p = path_probs(t_final);
  const auto& trees = forest_.trees();
  const auto& subnets = forest_.subnets();
  const auto& paths = forest_.paths();
  const auto& net_offsets = relax_.tree_group_offsets;
  const std::size_t num_nets = forest_.net_count();

  // 1. Argmax tree per net.
  std::vector<std::int32_t> chosen_tree(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n) {
    const auto lo = static_cast<std::size_t>(net_offsets[n]);
    const auto hi = static_cast<std::size_t>(net_offsets[n + 1]);
    std::size_t best = lo;
    for (std::size_t j = lo + 1; j < hi; ++j) {
      if (q[j] > q[best]) best = j;
    }
    chosen_tree[n] = static_cast<std::int32_t>(best);
  }

  // 2. Gather the chosen trees' subnets, ranked by selection confidence.
  struct PendingSubnet {
    std::int32_t subnet;
    float max_prob;
  };
  std::vector<PendingSubnet> pending;
  for (std::size_t n = 0; n < num_nets; ++n) {
    const dag::TreeCandidate& tc = trees[static_cast<std::size_t>(chosen_tree[n])];
    for (std::int32_t s = tc.subnet_begin; s < tc.subnet_end; ++s) {
      const dag::Subnet& sn = subnets[static_cast<std::size_t>(s)];
      float mx = 0.0f;
      for (std::int32_t i = sn.path_begin; i < sn.path_end; ++i) {
        mx = std::max(mx, p[static_cast<std::size_t>(i)]);
      }
      pending.push_back({s, mx});
    }
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingSubnet& a, const PendingSubnet& b) {
                     return a.max_prob > b.max_prob;
                   });

  // 3. Greedy commitment with true residual capacities.
  std::vector<double> demand(capacities_.size(), 0.0);
  const auto& inc_edges = forest_.inc_edges();
  const auto& inc_weights = forest_.inc_weights();

  auto marginal_cost = [&](std::size_t path_idx) -> double {
    const dag::PathCandidate& pc = paths[path_idx];
    double over = 0.0;
    for (std::uint32_t k = pc.inc_begin; k < pc.inc_end; ++k) {
      const auto e = static_cast<std::size_t>(inc_edges[k]);
      const double w = inc_weights[k];
      const double cap = capacities_[e];
      over += std::max(0.0, demand[e] + w - cap) - std::max(0.0, demand[e] - cap);
    }
    return static_cast<double>(config_.weight_overflow) * over +
           static_cast<double>(config_.weight_wirelength) * pc.wirelength +
           static_cast<double>(config_.weight_via) * via_cost_scale_ * pc.turns;
  };

  std::vector<std::int32_t> chosen_path(subnets.size(), -1);
  std::vector<std::size_t> order;  // candidate scratch
  for (const PendingSubnet& ps : pending) {
    const dag::Subnet& sn = subnets[static_cast<std::size_t>(ps.subnet)];
    order.clear();
    for (std::int32_t i = sn.path_begin; i < sn.path_end; ++i) {
      order.push_back(static_cast<std::size_t>(i));
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return p[a] > p[b]; });
    // Top-p prefix (always at least the argmax candidate).
    double cum = 0.0;
    std::size_t keep = 0;
    for (; keep < order.size(); ++keep) {
      cum += p[order[keep]];
      if (cum > config_.top_p) {
        ++keep;
        break;
      }
    }
    keep = std::max<std::size_t>(1, std::min(keep, order.size()));

    std::size_t best = order[0];
    double best_cost = marginal_cost(best);
    for (std::size_t k = 1; k < keep; ++k) {
      const double c = marginal_cost(order[k]);
      if (c < best_cost - 1e-9) {
        best_cost = c;
        best = order[k];
      }
    }
    chosen_path[static_cast<std::size_t>(ps.subnet)] = static_cast<std::int32_t>(best);
    const dag::PathCandidate& pc = paths[best];
    for (std::uint32_t k = pc.inc_begin; k < pc.inc_end; ++k) {
      demand[static_cast<std::size_t>(inc_edges[k])] += inc_weights[k];
    }
  }

  // 4. Materialise the RouteSolution.
  eval::RouteSolution sol;
  sol.design = &forest_.design();
  sol.nets.resize(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n) {
    eval::NetRoute& route = sol.nets[n];
    route.design_net = forest_.design_net(n);
    const dag::TreeCandidate& tc = trees[static_cast<std::size_t>(chosen_tree[n])];
    for (std::int32_t s = tc.subnet_begin; s < tc.subnet_end; ++s) {
      const std::int32_t pi = chosen_path[static_cast<std::size_t>(s)];
      route.paths.push_back(forest_.path_geometry(static_cast<std::size_t>(pi)));
    }
  }
  return sol;
}

}  // namespace dgr::core
