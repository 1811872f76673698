#include "geom/geom.hpp"

#include <algorithm>
#include <set>

namespace dgr::geom {

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << "," << p.y << ")";
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.lo << ".." << r.hi << "]";
}

Rect Rect::bounding_box(const std::vector<Point>& pts) {
  Rect r;
  if (pts.empty()) return r;
  r.lo = r.hi = pts.front();
  for (const Point& p : pts) {
    r.lo.x = std::min(r.lo.x, p.x);
    r.lo.y = std::min(r.lo.y, p.y);
    r.hi.x = std::max(r.hi.x, p.x);
    r.hi.y = std::max(r.hi.y, p.y);
  }
  return r;
}

HananGrid HananGrid::from_points(const std::vector<Point>& pts) {
  HananGrid g;
  g.xs.reserve(pts.size());
  g.ys.reserve(pts.size());
  for (const Point& p : pts) {
    g.xs.push_back(p.x);
    g.ys.push_back(p.y);
  }
  std::sort(g.xs.begin(), g.xs.end());
  g.xs.erase(std::unique(g.xs.begin(), g.xs.end()), g.xs.end());
  std::sort(g.ys.begin(), g.ys.end());
  g.ys.erase(std::unique(g.ys.begin(), g.ys.end()), g.ys.end());
  return g;
}

std::vector<Point> dedupe_points(std::vector<Point> pts) {
  // Compacts in place. A net has a handful of pins, so scanning the kept
  // prefix beats a node-based set; long pin lists still use the set.
  constexpr std::size_t kScanLimit = 32;
  std::size_t kept = 0;
  if (pts.size() <= kScanLimit) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto prefix_end = pts.begin() + static_cast<std::ptrdiff_t>(kept);
      if (std::find(pts.begin(), prefix_end, pts[i]) == prefix_end) pts[kept++] = pts[i];
    }
  } else {
    std::set<Point> seen;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (seen.insert(pts[i]).second) pts[kept++] = pts[i];
    }
  }
  pts.resize(kept);
  return pts;
}

}  // namespace dgr::geom
