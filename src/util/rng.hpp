#pragma once
// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the library (Gumbel noise, weight init,
// testcase generation) draw from Rng so a fixed seed reproduces a run
// bit-for-bit, which the paper's Table 1 "best/worst over seeds" protocol
// depends on.

#include <cstdint>
#include <vector>

namespace dgr::util {

/// xoshiro256** generator seeded via splitmix64. Small, fast, and good
/// enough statistical quality for Monte-Carlo style use here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Sample from the standard Gumbel(0,1) distribution: -log(-log(U)).
  double gumbel();

  /// Advances the stream exactly as gumbel() would (same uniform draws),
  /// without the two logs: a caller that needs only some samples of a
  /// sequence keeps the rest of it unchanged.
  void discard_gumbel();

  /// Derive an independent child stream; children with distinct tags are
  /// decorrelated from each other and from the parent.
  Rng fork(std::uint64_t tag) const;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  /// The uniform gumbel() transforms: redrawn while <= 1e-300 so both logs
  /// stay finite.
  double gumbel_uniform();

  std::uint64_t s_[4];
};

}  // namespace dgr::util
