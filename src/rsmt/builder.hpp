#pragma once
// FLUTE-equivalent RSMT builder: dispatches by pin count.
//
//   n <= kExactRsmtMaxPins   -> exact Hanan enumeration
//   n <= partition_threshold -> iterated 1-Steiner
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

struct RsmtOptions {
  std::size_t partition_threshold = 16;  ///< max pins handled by 1-Steiner
  OneSteinerOptions one_steiner;

  bool operator==(const RsmtOptions&) const = default;
};

class RsmtBuilder {
 public:
  RsmtBuilder() = default;
  explicit RsmtBuilder(RsmtOptions opts) : opts_(opts) {}

  /// Builds a rectilinear Steiner tree over the pins (duplicates tolerated).
  SteinerTree build(const std::vector<Point>& pins) const;

 private:
  SteinerTree build_small(const std::vector<Point>& pins) const;

  RsmtOptions opts_;
};

}  // namespace dgr::rsmt
