#pragma once
// FLUTE-equivalent RSMT builder: dispatches by pin count.
//
//   n <= kExactRsmtMaxPins   -> exact Hanan enumeration
//   n <= kOneSteinerMaxPins  -> iterated 1-Steiner
//   larger                   -> recursive median bisection; the two halves
//                               share the median pin, so subtrees join into
//                               one tree (FLUTE's own net-breaking strategy
//                               has the same shape)
//
// The result is always a valid spanning Steiner tree with
// HPWL <= length <= MST length (property-tested).

#include "rsmt/one_steiner.hpp"
#include "rsmt/steiner_tree.hpp"

namespace dgr::rsmt {

/// Largest group of pins the builder hands to iterated 1-Steiner whole.
inline constexpr std::size_t kOneSteinerMaxPins = 16;

class RsmtBuilder {
 public:
  /// Builds a rectilinear Steiner tree over the pins (duplicates tolerated).
  SteinerTree build(const std::vector<Point>& pins) const;

 private:
  SteinerTree build_small(const std::vector<Point>& pins) const;
};

}  // namespace dgr::rsmt
