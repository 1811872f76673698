#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "geom/geom.hpp"
#include "util/rng.hpp"

namespace dgr::geom {
namespace {

TEST(Point, EqualityAndOrdering) {
  EXPECT_EQ((Point{1, 2}), (Point{1, 2}));
  EXPECT_NE((Point{1, 2}), (Point{2, 1}));
  EXPECT_LT((Point{1, 2}), (Point{1, 3}));
  EXPECT_LT((Point{1, 9}), (Point{2, 0}));
}

TEST(Manhattan, BasicDistances) {
  EXPECT_EQ(manhattan({0, 0}, {0, 0}), 0);
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({-2, -3}, {2, 3}), 10);
  EXPECT_EQ(manhattan({5, 1}, {1, 5}), 8);
}

TEST(Manhattan, Symmetric) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Point a{static_cast<Coord>(rng.uniform_int(-100, 100)),
                  static_cast<Coord>(rng.uniform_int(-100, 100))};
    const Point b{static_cast<Coord>(rng.uniform_int(-100, 100)),
                  static_cast<Coord>(rng.uniform_int(-100, 100))};
    EXPECT_EQ(manhattan(a, b), manhattan(b, a));
  }
}

TEST(Manhattan, TriangleInequality) {
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    auto rnd = [&] {
      return Point{static_cast<Coord>(rng.uniform_int(0, 50)),
                   static_cast<Coord>(rng.uniform_int(0, 50))};
    };
    const Point a = rnd(), b = rnd(), c = rnd();
    EXPECT_LE(manhattan(a, c), manhattan(a, b) + manhattan(b, c));
  }
}

TEST(Rect, BoundingBoxOfPoints) {
  const Rect r = Rect::bounding_box({{3, 7}, {1, 9}, {5, 2}});
  EXPECT_EQ(r.lo, (Point{1, 2}));
  EXPECT_EQ(r.hi, (Point{5, 9}));
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 7);
  EXPECT_EQ(r.hpwl(), 11);
}

TEST(Rect, SinglePointBox) {
  const Rect r = Rect::bounding_box({{4, 4}});
  EXPECT_EQ(r.lo, r.hi);
  EXPECT_EQ(r.hpwl(), 0);
}

TEST(Rect, ContainsIsClosed) {
  const Rect r{{1, 1}, {3, 3}};
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_TRUE(r.contains({3, 3}));
  EXPECT_TRUE(r.contains({2, 2}));
  EXPECT_FALSE(r.contains({0, 2}));
  EXPECT_FALSE(r.contains({2, 4}));
}

TEST(Rect, InflatedGrowsEverySide) {
  const Rect r = Rect{{2, 3}, {4, 5}}.inflated(2);
  EXPECT_EQ(r.lo, (Point{0, 1}));
  EXPECT_EQ(r.hi, (Point{6, 7}));
}

TEST(Rect, HpwlLowerBoundsAnyTreeLength) {
  // Any tree spanning the points has length >= HPWL of their box.
  const std::vector<Point> pts{{0, 0}, {10, 0}, {5, 8}};
  const Rect r = Rect::bounding_box(pts);
  EXPECT_EQ(r.hpwl(), 18);
}

TEST(HananGrid, DeduplicatesCoordinates) {
  const HananGrid g = HananGrid::from_points({{1, 2}, {3, 2}, {1, 5}});
  EXPECT_EQ(g.xs, (std::vector<Coord>{1, 3}));
  EXPECT_EQ(g.ys, (std::vector<Coord>{2, 5}));
  EXPECT_EQ(g.size(), 4u);
}

TEST(HananGrid, EnumeratesFullCross) {
  const HananGrid g = HananGrid::from_points({{0, 0}, {2, 3}, {5, 1}});
  EXPECT_EQ(g.size(), 9u);
  std::set<std::pair<Coord, Coord>> pts;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Point p = g.point(i);
    pts.emplace(p.x, p.y);
  }
  EXPECT_EQ(pts.size(), 9u);
  EXPECT_TRUE(pts.count({2, 1}));  // a pure Hanan intersection
  EXPECT_TRUE(pts.count({0, 3}));
}

TEST(DedupePoints, KeepsFirstOccurrenceOrder) {
  const auto out = dedupe_points({{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}});
  EXPECT_EQ(out, (std::vector<Point>{{1, 1}, {2, 2}, {3, 3}}));
}

TEST(DedupePoints, LongListsKeepFirstOccurrenceOrder) {
  // Short lists scan the kept prefix, long ones use a set: both must keep
  // the first occurrence of each point, in input order.
  for (const std::size_t n : {std::size_t{32}, std::size_t{33}, std::size_t{200}}) {
    std::vector<Point> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<Coord>((i * 7) % 13), static_cast<Coord>((i * 3) % 5)});
    }
    std::vector<Point> want;
    for (const Point& p : pts) {
      if (std::find(want.begin(), want.end(), p) == want.end()) want.push_back(p);
    }
    EXPECT_EQ(dedupe_points(pts), want) << n;
  }
}

TEST(DedupePoints, EmptyAndSingleton) {
  EXPECT_TRUE(dedupe_points({}).empty());
  EXPECT_EQ(dedupe_points({{5, 5}}).size(), 1u);
}

}  // namespace
}  // namespace dgr::geom
