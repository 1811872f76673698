#include <gtest/gtest.h>

#include <sstream>

#include "design/design.hpp"
#include "design/generator.hpp"
#include "design/io.hpp"

namespace dgr::design {
namespace {

using geom::Point;

Design tiny_design() {
  GCellGrid grid = GCellGrid::uniform(8, 8, 4, 2);
  std::vector<Net> nets;
  nets.push_back({"a", {{0, 0}, {5, 5}, {2, 6}}});
  nets.push_back({"local", {{3, 3}, {3, 3}}});
  nets.push_back({"b", {{1, 1}, {7, 0}}});
  return Design("tiny", std::move(grid), std::move(nets));
}

TEST(Design, SeparatesRoutableAndLocalNets) {
  const Design d = tiny_design();
  EXPECT_EQ(d.net_count(), 3u);
  EXPECT_EQ(d.routable_nets(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(d.local_net_count(), 1u);
  EXPECT_TRUE(d.net(1).is_local());
  EXPECT_FALSE(d.net(0).is_local());
}

TEST(Design, DeduplicatesPins) {
  GCellGrid grid = GCellGrid::uniform(4, 4, 2, 1);
  std::vector<Net> nets{{"n", {{1, 1}, {1, 1}, {2, 2}}}};
  const Design d("x", std::move(grid), std::move(nets));
  EXPECT_EQ(d.net(0).pins.size(), 2u);
}

TEST(Design, RejectsOutOfGridPins) {
  GCellGrid grid = GCellGrid::uniform(4, 4, 2, 1);
  std::vector<Net> nets{{"n", {{1, 1}, {4, 0}}}};  // x=4 out of [0,3]
  EXPECT_THROW(Design("x", std::move(grid), std::move(nets)), std::invalid_argument);
}

TEST(Design, RejectsEmptyNet) {
  GCellGrid grid = GCellGrid::uniform(4, 4, 2, 1);
  std::vector<Net> nets{{"n", {}}};
  EXPECT_THROW(Design("x", std::move(grid), std::move(nets)), std::invalid_argument);
}

TEST(Design, PinDensityCountsAllPins) {
  const Design d = tiny_design();
  const auto density = d.pin_density();
  double total = 0.0;
  for (const float v : density) total += v;
  EXPECT_DOUBLE_EQ(total, 3 + 1 + 2);  // dedup dropped one of the local pins
  EXPECT_FLOAT_EQ(density[static_cast<std::size_t>(d.grid().cell_id({3, 3}))], 1.0f);
}

TEST(Design, LocalNetDensityOnlyCountsLocalNets) {
  const Design d = tiny_design();
  const auto density = d.local_net_density();
  double total = 0.0;
  for (const float v : density) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_FLOAT_EQ(density[static_cast<std::size_t>(d.grid().cell_id({3, 3}))], 1.0f);
}

TEST(Design, CapacitiesReflectEquationOne) {
  const Design d = tiny_design();
  const auto cap = d.capacities();
  ASSERT_EQ(cap.size(), static_cast<std::size_t>(d.grid().edge_count()));
  // Base capacity 2 tracks/layer * 2 same-direction layers = 4; pins and the
  // local net reduce some edges below that.
  bool some_reduced = false;
  for (const float c : cap) {
    EXPECT_LE(c, 4.0f);
    if (c < 4.0f) some_reduced = true;
  }
  EXPECT_TRUE(some_reduced);
}

TEST(Design, TotalHpwlSumsBoundingBoxes) {
  const Design d = tiny_design();
  // a: box (0,0)-(5,6) -> 11; local: 0; b: (1,0)-(7,1) -> 7.
  EXPECT_EQ(d.total_hpwl(), 18);
}

// ---------------------------------------------------------------------------
// Table 1 protocol generator
// ---------------------------------------------------------------------------

TEST(Table1Generator, PinsStayInsideBoxes) {
  Table1Params params;
  params.grid_w = 50;
  params.grid_h = 50;
  params.num_nets = 100;
  params.box_size = 10;
  const Table1Instance inst = make_table1_instance(params, 7);
  EXPECT_EQ(inst.design.net_count(), 100u);
  for (const Net& net : inst.design.nets()) {
    EXPECT_EQ(net.pins.size(), 3u);
    const geom::Rect box = geom::Rect::bounding_box(net.pins);
    EXPECT_LT(box.width(), params.box_size);
    EXPECT_LT(box.height(), params.box_size);
  }
}

TEST(Table1Generator, UniformCapacityVector) {
  Table1Params params;
  params.capacity = 2;
  const Table1Instance inst = make_table1_instance(params, 3);
  ASSERT_EQ(inst.capacities.size(),
            static_cast<std::size_t>(inst.design.grid().edge_count()));
  for (const float c : inst.capacities) EXPECT_FLOAT_EQ(c, 2.0f);
}

TEST(Table1Generator, DeterministicPerSeed) {
  Table1Params params;
  const Table1Instance a = make_table1_instance(params, 5);
  const Table1Instance b = make_table1_instance(params, 5);
  ASSERT_EQ(a.design.net_count(), b.design.net_count());
  for (std::size_t i = 0; i < a.design.net_count(); ++i) {
    EXPECT_EQ(a.design.net(i).pins, b.design.net(i).pins);
  }
  const Table1Instance c = make_table1_instance(params, 6);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.design.net_count(); ++i) {
    if (!(a.design.net(i).pins == c.design.net(i).pins)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// ISPD-like generator
// ---------------------------------------------------------------------------

TEST(IspdGenerator, ProducesRequestedShape) {
  IspdLikeParams p;
  p.grid_w = 32;
  p.grid_h = 24;
  p.num_nets = 300;
  p.layers = 5;
  const Design d = generate_ispd_like(p, 11);
  EXPECT_EQ(d.net_count(), 300u);
  EXPECT_EQ(d.grid().width(), 32);
  EXPECT_EQ(d.grid().height(), 24);
  EXPECT_EQ(d.grid().layer_count(), 5);
  for (const Net& net : d.nets()) {
    EXPECT_GE(net.pins.size(), 1u);
    EXPECT_LE(static_cast<int>(net.pins.size()), p.max_pins_per_net);
  }
}

TEST(IspdGenerator, LocalNetFractionRoughlyRespected) {
  IspdLikeParams p;
  p.num_nets = 4000;
  p.local_net_fraction = 0.2;
  const Design d = generate_ispd_like(p, 13);
  const double frac =
      static_cast<double>(d.local_net_count()) / static_cast<double>(d.net_count());
  EXPECT_NEAR(frac, 0.2, 0.05);
}

TEST(IspdGenerator, HotspotsConcentratePins) {
  IspdLikeParams clustered;
  clustered.num_nets = 2000;
  clustered.hotspots = 1;
  clustered.hotspot_affinity = 0.95;
  clustered.hotspot_sigma = 0.03;
  IspdLikeParams uniform = clustered;
  uniform.hotspot_affinity = 0.0;

  auto max_cell_density = [](const Design& d) {
    float mx = 0.0f;
    for (const float v : d.pin_density()) mx = std::max(mx, v);
    return mx;
  };
  EXPECT_GT(max_cell_density(generate_ispd_like(clustered, 17)),
            2.0f * max_cell_density(generate_ispd_like(uniform, 17)));
}

TEST(IspdGenerator, DeterministicPerSeed) {
  IspdLikeParams p;
  p.num_nets = 100;
  const Design a = generate_ispd_like(p, 21);
  const Design b = generate_ispd_like(p, 21);
  for (std::size_t i = 0; i < a.net_count(); ++i) {
    EXPECT_EQ(a.net(i).pins, b.net(i).pins);
  }
}

TEST(Presets, Table2HasSixCongestedFiveLayerCases) {
  const auto presets = table2_presets();
  ASSERT_EQ(presets.size(), 6u);
  EXPECT_EQ(presets[0].name, "ispd18_5m");
  EXPECT_EQ(presets[5].name, "ispd19_9m");
  for (const auto& p : presets) EXPECT_EQ(p.layers, 5);
  // Row scale ladder: later ispd19 cases are bigger than ispd18_5m.
  EXPECT_GT(presets[5].num_nets, presets[0].num_nets);
}

TEST(Presets, Table3LadderGrows) {
  const auto presets = table3_presets();
  ASSERT_EQ(presets.size(), 10u);
  EXPECT_EQ(presets[0].name, "ispd18_test1");
  EXPECT_LT(presets[0].num_nets, presets[9].num_nets);
}

TEST(Presets, ScaleShrinksCases) {
  const auto full = table3_presets(1.0);
  const auto half = table3_presets(0.5);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_LT(half[i].num_nets, full[i].num_nets);
    EXPECT_LE(half[i].grid_w, full[i].grid_w);
  }
}

// ---------------------------------------------------------------------------
// Text I/O
// ---------------------------------------------------------------------------

TEST(DesignIo, RoundTripPreservesEverything) {
  const Design d = tiny_design();
  std::stringstream ss;
  write_design(ss, d);
  const Design r = try_read_design(ss).take();
  EXPECT_EQ(r.name(), d.name());
  EXPECT_EQ(r.grid().width(), d.grid().width());
  EXPECT_EQ(r.grid().height(), d.grid().height());
  EXPECT_EQ(r.grid().layer_count(), d.grid().layer_count());
  for (int l = 0; l < d.grid().layer_count(); ++l) {
    EXPECT_EQ(r.grid().layers()[static_cast<std::size_t>(l)].dir,
              d.grid().layers()[static_cast<std::size_t>(l)].dir);
    EXPECT_EQ(r.grid().layers()[static_cast<std::size_t>(l)].tracks,
              d.grid().layers()[static_cast<std::size_t>(l)].tracks);
  }
  ASSERT_EQ(r.net_count(), d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    EXPECT_EQ(r.net(i).name, d.net(i).name);
    EXPECT_EQ(r.net(i).pins, d.net(i).pins);
  }
}

TEST(DesignIo, GeneratedDesignRoundTrips) {
  IspdLikeParams p;
  p.num_nets = 50;
  const Design d = generate_ispd_like(p, 3);
  std::stringstream ss;
  write_design(ss, d);
  const Design r = try_read_design(ss).take();
  EXPECT_EQ(r.net_count(), d.net_count());
  EXPECT_EQ(r.routable_nets(), d.routable_nets());
}

TEST(DesignIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\ndgrd 1\ndesign t\n# mid comment\ngrid 2 2 1\nlayer H 1\n"
        "nets 1\nnet n0 2 0 0 1 1\nend\n";
  const Design d = try_read_design(ss).take();
  EXPECT_EQ(d.net_count(), 1u);
}

TEST(DesignIo, RejectsBadHeader) {
  std::stringstream ss("dgrx 1\n");
  EXPECT_EQ(try_read_design(ss).status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsTruncatedNetLine) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets 1\nnet n0 2 0 0\nend\n");
  EXPECT_EQ(try_read_design(ss).status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsBadLayerDirection) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer X 1\nnets 0\nend\n");
  EXPECT_EQ(try_read_design(ss).status().code(), StatusCode::kParseError);
}

TEST(DesignIo, ErrorMentionsLineNumber) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 0 2 1\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

// ---- hardened parser: typed Status instead of ad-hoc throws ----------------

TEST(DesignIo, TryReadReturnsTypedParseError) {
  std::stringstream ss("dgrx 1\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(DesignIo, TryReadSucceedsOnValidInput) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets 1\nnet n0 2 0 0 1 1\nend\n");
  Result<Design> r = try_read_design(ss);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().net_count(), 1u);
}

TEST(DesignIo, RejectsTruncatedFile) {
  // Promises one net, then the stream ends: must be a typed error, not a
  // hang, crash, or silently empty design.
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets 1\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("end of file"), std::string::npos);
}

TEST(DesignIo, RejectsNegativeNetCount) {
  // A negative count must not wrap through unsigned into a giant reserve.
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets -5\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsOverflowingGridDims) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 999999999999 4 1\nlayer H 1\nnets 0\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsHugeGridArea) {
  // Each axis within the per-axis cap, product past the cell cap.
  std::stringstream ss("dgrd 1\ndesign t\ngrid 65536 65536 1\nlayer H 1\nnets 0\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsDuplicateNetId) {
  std::stringstream ss(
      "dgrd 1\ndesign t\ngrid 4 4 1\nlayer H 1\nnets 2\n"
      "net n0 2 0 0 1 1\nnet n0 2 2 2 3 3\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("duplicate net id"), std::string::npos);
}

TEST(DesignIo, RejectsPinOutsideGridAtParse) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets 1\nnet n0 2 0 0 5 5\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DesignIo, RejectsZeroPinNet) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets 1\nnet n0 0\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DesignIo, MissingFileIsNotFound) {
  const Result<Design> r = try_read_design_file("/nonexistent/dir/absent.dgrd");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DesignIo, StatusTextCarriesParseErrorCode) {
  std::stringstream ss("dgrd 1\ndesign t\ngrid 2 2 1\nlayer H 1\nnets -1\nend\n");
  const Result<Design> r = try_read_design(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().to_string().find("PARSE_ERROR"), std::string::npos);
}

}  // namespace
}  // namespace dgr::design
