#pragma once
// Repetition statistics for the suite: median, quartiles, MAD, and the
// "highest percentile with at least ten samples beyond it" rule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace dgr::bench {

/// Percentile `p` in [0, 100] by linear interpolation between order
/// statistics (numpy's default). 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
/// the suite's spreads match the ones a reader recomputes from raw values.
inline std::vector<double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * (n + 1) / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    out.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                   v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

/// Median of the repetitions after the first, which runs cold (allocator
/// growth, first pool wake-up); the plain median when there is only one.
inline double warm_median(const std::vector<double>& v) {
  return v.size() >= 2 ? median(std::vector<double>(v.begin() + 1, v.end())) : median(v);
}

/// Percentile `p` of each of `windows` equal consecutive slices of `v`,
/// then the median of those: a tail that one stalled stretch of a run
/// cannot move on its own.
inline double windowed_percentile(const std::vector<double>& v, std::size_t windows, double p) {
  const std::size_t n = std::max<std::size_t>(1, std::min(windows, v.size()));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < n; ++w) {
    per_window.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / n),
                            v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / n)),
        p));
  }
  return median(std::move(per_window));
}

/// Median absolute deviation from the median.
inline double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - m));
  return median(std::move(dev));
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it in a sample of `n`; 0 when even the median has
/// fewer (n < 20), i.e. no tail can be reported.
inline double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

}  // namespace dgr::bench
