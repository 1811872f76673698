#pragma once
/// \file
/// \brief Deterministic, seeded fault injection for the chaos test suite.
///
/// Differentiable-programming substrates embedded in a host language get
/// fault testing "for free" from the host; this repo builds its own. A
/// FaultPlan names injection *sites* (string ids compiled into the library
/// at parse, kernel, stage and allocation boundaries) and, per site, a fire
/// probability and an optional cap on the number of fires. Whether the k-th
/// hit of a site fires is a pure function of (plan seed, site name, k), so
/// a chaos run replays bit-for-bit — including across worker counts, since
/// every site sits on serial code paths.
///
/// The hooks are compiled in when DGR_FAULT_INJECTION is defined (the
/// default; configure with -DDGR_FAULT_INJECTION=OFF to compile them away).
/// Compiled in but disarmed, each site costs one relaxed atomic load.
///
/// Usage (tests):
///   util::fault::ScopedPlan chaos({seed, {{"core.grad", 1.0, 1}}});
///   ... run the pipeline; the first gradient check sees a NaN ...
/// Sites report hit/fire counts so a suite can assert every injection point
/// was actually exercised.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dgr::util::fault {

/// One site's injection policy within a plan.
struct FaultSpec {
  std::string site;          ///< compiled-in site id, e.g. "io.parse"
  double probability = 1.0;  ///< chance each hit fires (deterministic draw)
  int max_fires = -1;        ///< stop firing after this many; -1 = unlimited
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;
};

/// True when the hooks were compiled in (DGR_FAULT_INJECTION).
bool compiled_in();

/// Installs `plan` and resets all hit/fire counters. Thread-safe with
/// respect to should_fire, but arm/disarm themselves are test-harness calls
/// and must not race each other.
void arm(const FaultPlan& plan);
void disarm();
bool armed();

/// The runtime injection predicate behind DGR_FAULT_POINT. Counts the hit,
/// then fires iff the armed plan covers `site` and the deterministic draw
/// for this hit index passes. Always false when disarmed.
bool should_fire(std::string_view site);

/// Counters since the last arm(): how often a site was evaluated / fired.
/// Sites are tracked once hit, whether or not the plan covers them.
std::uint64_t hits(std::string_view site);
std::uint64_t fires(std::string_view site);

/// RAII arm/disarm for tests.
class ScopedPlan {
 public:
  explicit ScopedPlan(const FaultPlan& plan) { arm(plan); }
  ~ScopedPlan() { disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

/// RAII per-thread fire capture: while in scope, every fire on the
/// *current* thread appends its site name to this collector (collectors
/// nest; the innermost wins). The serve worker arms one per request so the
/// flight recorder can attribute fires to the request that hit them — every
/// compiled-in site sits on serial code paths, so the request's own thread
/// sees all of its fires.
class ScopedFireCollector {
 public:
  ScopedFireCollector();
  ~ScopedFireCollector();
  ScopedFireCollector(const ScopedFireCollector&) = delete;
  ScopedFireCollector& operator=(const ScopedFireCollector&) = delete;
  const std::vector<std::string>& fired() const { return fired_; }

 private:
  std::vector<std::string> fired_;
  std::vector<std::string>* prev_ = nullptr;
};

/// The sites collected so far by the current thread's innermost
/// ScopedFireCollector (empty when none is in scope).
std::vector<std::string> current_fired_sites();

}  // namespace dgr::util::fault

/// Injection points compile to a plain `false` when the hooks are off, so
/// gated code like `if (DGR_FAULT_POINT("io.parse")) ...` folds away.
#if defined(DGR_FAULT_INJECTION)
#define DGR_FAULT_POINT(site) (::dgr::util::fault::should_fire(site))
#else
#define DGR_FAULT_POINT(site) (false)
#endif
