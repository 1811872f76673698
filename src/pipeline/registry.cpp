#include "pipeline/registry.hpp"

#include <utility>

#include "partition/router.hpp"

namespace dgr::pipeline {

namespace {

struct Entry {
  const char* name;
  std::unique_ptr<Router> (*make)(const RouterOptions& options);
};

/// Sorted by name.
constexpr Entry kRouters[] = {
    {"cugr2-lite",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<Cugr2Router>(o.cugr2);
     }},
    {"dgr",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<DgrRouter>(o.dgr, o.forest);
     }},
    {"lagrangian",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<LagrangianPipelineRouter>(o.lagrangian);
     }},
    {"partitioned",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       // Ensure the plan actually partitions when selected by name: a
       // default-constructed config requests 0 regions, which the router
       // clamps to 1 (pure delegation) — surprising for make_router users.
       partition::PartitionConfig cfg = o.partition;
       if (cfg.partitions <= 1) cfg.partitions = 4;
       return std::make_unique<partition::PartitionedRouter>(std::move(cfg), o);
     }},
    {"sproute-lite",
     [](const RouterOptions& o) -> std::unique_ptr<Router> {
       return std::make_unique<SpRouteRouter>(o.sproute);
     }},
};

const Entry* find_entry(const std::string& name) {
  for (const Entry& entry : kRouters) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Router> make_router(const std::string& name, const RouterOptions& options) {
  const Entry* entry = find_entry(name);
  return entry == nullptr ? nullptr : entry->make(options);
}

std::vector<std::string> registered_routers() {
  std::vector<std::string> names;
  for (const Entry& entry : kRouters) names.emplace_back(entry.name);
  return names;
}

bool has_router(const std::string& name) { return find_entry(name) != nullptr; }

}  // namespace dgr::pipeline
