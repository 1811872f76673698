#include "util/rng.hpp"

#include <cmath>

namespace dgr::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span + 1) % span;
  std::uint64_t r = next_u64();
  while (r > limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::gumbel_uniform() {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return u;
}

double Rng::gumbel() { return -std::log(-std::log(gumbel_uniform())); }

void Rng::discard_gumbel() { gumbel_uniform(); }

Rng Rng::fork(std::uint64_t tag) const {
  // Mix all state words with the tag through splitmix to derive a child seed.
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 41);
  mix ^= tag * 0xd1342543de82ef95ull;
  return Rng(splitmix64(mix));
}

}  // namespace dgr::util
