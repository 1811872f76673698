#pragma once
/// \file
/// Fixed name -> router table for config-driven engine selection.
///
/// The four router families and the partition-parallel composite resolve
/// under "cugr2-lite", "dgr", "lagrangian", "partitioned" and
/// "sproute-lite". A RouterOptions bundle configures every engine, so
/// harnesses drive any router's configuration through one struct.

#include <memory>
#include <string>
#include <vector>

#include "pipeline/adapters.hpp"

namespace dgr::pipeline {

/// Instantiates the router named `name`; nullptr when unknown.
std::unique_ptr<Router> make_router(const std::string& name,
                                    const RouterOptions& options = {});

/// All router names, sorted.
std::vector<std::string> registered_routers();

/// Whether `name` names a router.
bool has_router(const std::string& name);

}  // namespace dgr::pipeline
