#include "util/fault.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dgr::util::fault {

namespace {

struct SiteState {
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  // Index into the armed plan's faults, or -1 when the plan doesn't cover
  // this site (still counted so hits() reports coverage).
  int spec = -1;
};

struct Registry {
  std::mutex mu;
  bool armed = false;
  FaultPlan plan;
  std::map<std::string, SiteState, std::less<>> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Innermost ScopedFireCollector sink on this thread (nullptr when none).
thread_local std::vector<std::string>* g_fire_sink = nullptr;

/// Disarmed fast path: one relaxed load per DGR_FAULT_POINT.
std::atomic<bool>& armed_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Whether the `hit_index`-th hit of `site` fires: a pure function of the
/// plan seed, the site name and the hit index, so chaos runs replay exactly.
bool draw(std::uint64_t seed, std::string_view site, std::uint64_t hit_index,
          double probability) {
  if (probability >= 1.0) return true;
  if (probability <= 0.0) return false;
  const std::uint64_t u = splitmix64(seed ^ fnv1a(site) ^ (hit_index * 0x9e3779b9ull));
  // 53-bit mantissa keeps the uniform draw exact in double.
  const double unit = static_cast<double>(u >> 11) * 0x1.0p-53;
  return unit < probability;
}

}  // namespace

bool compiled_in() {
#if defined(DGR_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

void arm(const FaultPlan& plan) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.plan = plan;
  r.sites.clear();
  r.armed = true;
  armed_flag().store(true, std::memory_order_release);
}

void disarm() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.armed = false;
  armed_flag().store(false, std::memory_order_release);
}

bool armed() { return armed_flag().load(std::memory_order_acquire); }

bool should_fire(std::string_view site) {
  if (!armed_flag().load(std::memory_order_relaxed)) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.armed) return false;
  auto it = r.sites.find(site);
  if (it == r.sites.end()) {
    SiteState state;
    for (std::size_t i = 0; i < r.plan.faults.size(); ++i) {
      if (r.plan.faults[i].site == site) {
        state.spec = static_cast<int>(i);
        break;
      }
    }
    it = r.sites.emplace(std::string(site), state).first;
  }
  SiteState& state = it->second;
  const std::uint64_t hit_index = state.hits++;
  if (state.spec < 0) return false;
  const FaultSpec& spec = r.plan.faults[static_cast<std::size_t>(state.spec)];
  if (spec.max_fires >= 0 && state.fires >= static_cast<std::uint64_t>(spec.max_fires)) {
    return false;
  }
  if (!draw(r.plan.seed, site, hit_index, spec.probability)) return false;
  ++state.fires;
  // A fire is a rare, diagnosis-relevant event: mark it on the trace
  // timeline and in the metrics snapshot. Instant names need static
  // lifetime, hence the interner (fires are rare — the allocation is off
  // any hot path).
  DGR_TRACE_INSTANT(obs::intern("fault." + std::string(site)));
  obs::metrics().counter("fault.fires").add(1);
  if (g_fire_sink != nullptr) g_fire_sink->emplace_back(site);
  return true;
}

ScopedFireCollector::ScopedFireCollector() : prev_(g_fire_sink) { g_fire_sink = &fired_; }

ScopedFireCollector::~ScopedFireCollector() { g_fire_sink = prev_; }

std::vector<std::string> current_fired_sites() {
  return g_fire_sink != nullptr ? *g_fire_sink : std::vector<std::string>{};
}

std::uint64_t hits(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.hits;
}

std::uint64_t fires(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.fires;
}

}  // namespace dgr::util::fault
