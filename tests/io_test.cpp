// IO suite (ctest -L io): .dgrd round-trips stay lossless while the design
// is mutated by the ECO mutation model, and the hardened parser keeps
// rejecting hostile input with typed, line-numbered errors. Blockages and
// class weights are routing-side overlays (not netlist data), so a mutated
// DesignState's netlist must survive write -> read -> write unchanged at
// every step of a seeded mutation sequence.

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "design/generator.hpp"
#include "design/io.hpp"
#include "design/mutate.hpp"
#include "dgrd_reference.hpp"

namespace dgr {
namespace {

using design::Design;
using design::DesignState;
using design::Mutation;
using design::MutationParams;

design::Design io_design(std::uint64_t seed = 21) {
  design::IspdLikeParams p;
  p.name = "io_roundtrip";
  p.grid_w = p.grid_h = 14;
  p.num_nets = 80;
  p.layers = 4;
  p.tracks_per_layer = 3;
  return design::generate_ispd_like(p, seed);
}

std::string to_dgrd(const Design& d) {
  std::ostringstream os;
  design::write_design(os, d);
  return os.str();
}

/// write -> read -> write must reproduce the exact bytes; returns the
/// re-read design for further mutation.
Design expect_lossless(const Design& d) {
  const std::string first = to_dgrd(d);
  std::istringstream is(first);
  Result<Design> r = design::try_read_design(is);
  EXPECT_TRUE(r.ok()) << r.status().message();
  if (!r.ok()) return d;
  Design back = r.take();
  EXPECT_EQ(to_dgrd(back), first);
  EXPECT_EQ(back.net_count(), d.net_count());
  EXPECT_EQ(back.routable_nets(), d.routable_nets());
  EXPECT_EQ(back.total_hpwl(), d.total_hpwl());
  return back;
}

TEST(DgrdRoundTrip, GeneratedDesignIsLossless) {
  expect_lossless(io_design());
}

TEST(DgrdRoundTrip, SurvivesSeededMutationSequence) {
  DesignState state = design::make_design_state(io_design(), 4);
  MutationParams params;
  util::Rng rng(99);
  for (int step = 0; step < 12; ++step) {
    const Mutation m = design::generate_mutation(state, params, rng);
    ASSERT_TRUE(design::apply_mutation(state, m).ok()) << m.label;
    // The evolving netlist round-trips losslessly at every step...
    const Design back = expect_lossless(state.design);
    // ...and the re-read design is byte-equivalent as a mutation substrate:
    // the same follow-up mutation produces the same netlist bytes.
    DesignState a = state;
    DesignState b = state;
    b.design = back;
    util::Rng fork_a(1234 + step);
    util::Rng fork_b(1234 + step);
    const Mutation next_a = design::generate_mutation(a, params, fork_a);
    const Mutation next_b = design::generate_mutation(b, params, fork_b);
    ASSERT_TRUE(design::apply_mutation(a, next_a).ok());
    ASSERT_TRUE(design::apply_mutation(b, next_b).ok());
    EXPECT_EQ(to_dgrd(a.design), to_dgrd(b.design)) << "step " << step;
  }
}

TEST(DgrdRoundTrip, MovedAndAddedPinsSurviveExactly) {
  DesignState state = design::make_design_state(io_design(), 4);
  MutationParams params;
  params.move_fraction = 0.5;  // heavy pin churn
  util::Rng rng(7);
  ASSERT_TRUE(design::apply_mutation(state, design::make_move_pins(state, params, rng)).ok());
  ASSERT_TRUE(design::apply_mutation(state, design::make_add_nets(state, params, rng)).ok());
  ASSERT_TRUE(
      design::apply_mutation(state, design::make_remove_nets(state, params, rng)).ok());
  expect_lossless(state.design);
}

// ---------------------------------------------------------------------------
// Hardened rejection paths (PR 3): typed errors, never crashes
// ---------------------------------------------------------------------------

Status parse_status(const std::string& text) {
  std::istringstream is(text);
  return design::try_read_design(is).status();
}

TEST(DgrdRejects, TruncatedAfterHeader) {
  const Status s = parse_status("dgrd 1\ndesign t\ngrid 4 4 2\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(DgrdRejects, TruncatedMidNetList) {
  const Status s = parse_status(
      "dgrd 1\ndesign t\ngrid 4 4 2\nlayer H 2\nlayer V 2\nnets 2\n"
      "net n0 2 0 0 3 3\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(DgrdRejects, BadMagicAndVersion) {
  EXPECT_EQ(parse_status("dgrx 1\n").code(), StatusCode::kParseError);
  EXPECT_EQ(parse_status("dgrd 999\n").code(), StatusCode::kParseError);
}

TEST(DgrdRejects, HostileCountsAndCoordinates) {
  // Negative / overflowing counts.
  EXPECT_EQ(parse_status("dgrd 1\ndesign t\ngrid -4 4 2\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(parse_status("dgrd 1\ndesign t\ngrid 4 4 2\nlayer H 2\nlayer V 2\n"
                         "nets 99999999999999999999\n")
                .code(),
            StatusCode::kParseError);
  // Out-of-grid pin.
  EXPECT_EQ(parse_status("dgrd 1\ndesign t\ngrid 4 4 2\nlayer H 2\nlayer V 2\n"
                         "nets 1\nnet n0 2 0 0 9 9\nend\n")
                .code(),
            StatusCode::kParseError);
  // Pin-count / coordinate-list mismatch.
  EXPECT_EQ(parse_status("dgrd 1\ndesign t\ngrid 4 4 2\nlayer H 2\nlayer V 2\n"
                         "nets 1\nnet n0 3 0 0 1 1\nend\n")
                .code(),
            StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// DesignLimits caps (serve hardening): well-formed but oversized input is
// kInvalidDesign — distinct from kParseError — with the exceeded cap named.
// ---------------------------------------------------------------------------

Status parse_status_limited(const std::string& text, const design::DesignLimits& limits) {
  std::istringstream is(text);
  return design::try_read_design(is, limits).status();
}

TEST(DgrdLimits, ByteCapRejectsOversizedInput) {
  design::DesignLimits limits;
  limits.max_input_bytes = 64;
  const Status s = parse_status_limited(to_dgrd(io_design()), limits);
  EXPECT_EQ(s.code(), StatusCode::kInvalidDesign);
  EXPECT_NE(s.message().find("byte cap"), std::string::npos) << s.message();
}

TEST(DgrdLimits, NetCapRejectsOversizedNetlist) {
  design::DesignLimits limits;
  limits.max_nets = 10;
  const Status s = parse_status_limited(to_dgrd(io_design()), limits);
  EXPECT_EQ(s.code(), StatusCode::kInvalidDesign);
  EXPECT_NE(s.message().find("net count"), std::string::npos) << s.message();
}

TEST(DgrdLimits, PinCapRejectsOversizedNetlist) {
  design::DesignLimits limits;
  limits.max_total_pins = 12;
  const Status s = parse_status_limited(to_dgrd(io_design()), limits);
  EXPECT_EQ(s.code(), StatusCode::kInvalidDesign);
  EXPECT_NE(s.message().find("pin count"), std::string::npos) << s.message();
}

TEST(DgrdLimits, GenerousCapsStillAccept) {
  design::DesignLimits limits;
  limits.max_input_bytes = 1 << 24;
  limits.max_nets = 1 << 20;
  limits.max_total_pins = 1 << 22;
  EXPECT_TRUE(parse_status_limited(to_dgrd(io_design()), limits).ok());
}

TEST(DgrdRejects, MutatedDesignNeverWritesRejectableBytes) {
  // Adversarial loop: whatever the mutation model produces, the writer's
  // output must stay inside the parser's accepted language.
  DesignState state = design::make_design_state(io_design(), 13);
  MutationParams params;
  util::Rng rng(31);
  for (int step = 0; step < 20; ++step) {
    const Mutation m = design::generate_mutation(state, params, rng);
    ASSERT_TRUE(design::apply_mutation(state, m).ok()) << m.label;
    std::istringstream is(to_dgrd(state.design));
    EXPECT_TRUE(design::try_read_design(is).ok()) << "step " << step << " " << m.label;
  }
}

// ---------------------------------------------------------------------------
// Differential check: try_read_design against the istringstream reference
// parser (dgrd_reference.hpp) on seeded byte mutations of generated designs
// ---------------------------------------------------------------------------

void expect_same_design(const Design& got, const Design& want, const std::string& label) {
  EXPECT_EQ(got.name(), want.name()) << label;
  EXPECT_EQ(got.grid().width(), want.grid().width()) << label;
  EXPECT_EQ(got.grid().height(), want.grid().height()) << label;
  ASSERT_EQ(got.grid().layer_count(), want.grid().layer_count()) << label;
  for (std::size_t l = 0; l < want.grid().layers().size(); ++l) {
    EXPECT_EQ(got.grid().layers()[l].dir, want.grid().layers()[l].dir) << label;
    EXPECT_EQ(got.grid().layers()[l].tracks, want.grid().layers()[l].tracks) << label;
  }
  ASSERT_EQ(got.net_count(), want.net_count()) << label;
  for (std::size_t n = 0; n < want.net_count(); ++n) {
    EXPECT_EQ(got.net(n).name, want.net(n).name) << label << " net " << n;
    EXPECT_EQ(got.net(n).pins, want.net(n).pins) << label << " net " << n;
  }
}

/// Parses `text` with both parsers; they must agree on ok-ness, StatusCode,
/// message and the parsed Design. Returns the verdict's message ("" on ok).
std::string expect_same_parse(const std::string& text, const design::DesignLimits& limits,
                              const std::string& label) {
  std::istringstream a(text);
  std::istringstream b(text);
  const Result<Design> got = design::try_read_design(a, limits);
  const Result<Design> want = design::reference::try_read_design(b, limits);
  EXPECT_EQ(got.ok(), want.ok()) << label << ": " << want.status().message();
  EXPECT_EQ(got.status().code(), want.status().code()) << label;
  EXPECT_EQ(got.status().message(), want.status().message()) << label;
  if (got.ok() && want.ok()) expect_same_design(got.value(), want.value(), label);
  return want.status().message();
}

/// Bytes the mutator inserts: every classic-locale space, the sign and
/// comment characters, bytes next to the digit range, a NUL and a high byte.
constexpr char kMutationBytes[] = {' ', '\t', '\r', '\n', '\v', '\f', '+', '-', '#', '0',
                                   '1', '9', '/', ':', 'x', 'H', 'V', 'e', '\0', '\xA0'};
/// Literals spliced over a digit run: both long long bounds and one past
/// them, int bounds, signed zeros, padded and sign-stacked forms.
const char* const kMutationNumbers[] = {
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "2147483648", "4294967297",
    "00000000000000000000001", "+0", "-0", "+-1", "-+1", "++1", "1e3", "0x10", "+", "-"};

/// One seeded edit of `text`: an inserted, deleted or replaced byte, a digit
/// turned into a sign, a digit run replaced by a hostile literal, a space
/// turned into a tab, a '\r' before a newline, or a duplicated line.
void mutate_once(std::string& text, util::Rng& rng) {
  if (text.empty()) {
    text.push_back('1');
    return;
  }
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  auto byte = [&] { return kMutationBytes[pick(sizeof(kMutationBytes))]; };
  // A random position holding one of `chars`, or text.size() when none.
  auto find_from = [&](const std::string& chars) {
    const std::size_t start = pick(text.size());
    std::size_t pos = text.find_first_of(chars, start);
    if (pos == std::string::npos) pos = text.find_first_of(chars);
    return pos == std::string::npos ? text.size() : pos;
  };
  const std::string digits = "0123456789";
  switch (pick(8)) {
    case 0:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pick(text.size() + 1)), byte());
      break;
    case 1:
      text.erase(pick(text.size()), 1);
      break;
    case 2:
      text[pick(text.size())] = byte();
      break;
    case 3: {
      const std::size_t pos = find_from(digits);
      if (pos < text.size()) text[pos] = rng.uniform() < 0.5 ? '+' : '-';
      break;
    }
    case 4: {
      const std::size_t pos = find_from(digits);
      if (pos == text.size()) break;
      std::size_t begin = pos;
      while (begin > 0 && std::isdigit(static_cast<unsigned char>(text[begin - 1]))) --begin;
      const std::size_t end = text.find_first_not_of(digits, pos);
      text.replace(begin, (end == std::string::npos ? text.size() : end) - begin,
                   kMutationNumbers[pick(std::size(kMutationNumbers))]);
      break;
    }
    case 5: {
      const std::size_t pos = find_from(" ");
      if (pos < text.size()) text[pos] = '\t';
      break;
    }
    case 6: {
      const std::size_t pos = find_from("\n");
      if (pos < text.size()) text.insert(pos, 1, '\r');
      break;
    }
    default: {
      const std::size_t pos = find_from("\n");
      if (pos == text.size()) break;
      const std::size_t prev = text.rfind('\n', pos == 0 ? 0 : pos - 1);
      const std::size_t begin = prev == std::string::npos || pos == 0 ? 0 : prev + 1;
      text.insert(pos + 1, text.substr(begin, pos + 1 - begin));
      break;
    }
  }
}

TEST(DgrdDifferential, ScannerMatchesReferenceParserOnMutatedDesigns) {
  std::vector<std::string> bases;
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    design::IspdLikeParams p;
    p.name = "diff" + std::to_string(seed);
    p.grid_w = p.grid_h = 9;
    p.num_nets = 10;
    p.layers = 3;
    p.tracks_per_layer = 2;
    bases.push_back(to_dgrd(design::generate_ispd_like(p, seed)));
  }
  // A comment, blank lines, CRLF endings and a missing final newline.
  bases.push_back("# hand-written\r\ndgrd 1\r\n\r\ndesign hand\r\ngrid 5 4 2\r\n"
                  "layer H 3\r\nlayer V 3\r\nnets 2\r\nnet a 2 0 0 4 3\r\n"
                  "net b 3 1 1 1 2 3 3\r\nend");

  design::DesignLimits caps;
  caps.max_input_bytes = 200;
  caps.max_nets = 8;
  caps.max_total_pins = 20;

  util::Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  std::set<std::string> messages;
  constexpr int kMutants = 3000;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = bases[static_cast<std::size_t>(i) % bases.size()];
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < edits; ++k) mutate_once(text, rng);
    const bool capped = i % 5 == 4;
    const std::string message =
        expect_same_parse(text, capped ? caps : design::DesignLimits{},
                          "mutant " + std::to_string(i));
    if (HasFailure()) {
      ADD_FAILURE() << "first disagreement on mutant " << i << ":\n" << text;
      return;
    }
    (message.empty() ? accepted : rejected) += 1;
    // Group rejections by kind: the text after "line N: " up to its first
    // number or coordinate.
    if (!message.empty()) {
      const std::string kind = message.substr(message.find(": ") + 2);
      messages.insert(kind.substr(0, kind.find_first_of("0123456789(")));
    }
  }
  // The mutants must reach both verdicts and most of the rejection paths.
  EXPECT_GE(accepted, kMutants / 10);
  EXPECT_GE(rejected, kMutants / 10);
  EXPECT_GE(messages.size(), 12u);
}

TEST(DgrdDifferential, ScannerMatchesReferenceOnTokenEdgeCases) {
  // Lines where the stream's operator>> semantics decide the verdict.
  const std::string head = "dgrd 1\ndesign t\ngrid 6 6 2\nlayer H 2\nlayer V 2\n";
  const std::vector<std::string> texts = {
      "dgrd +1\ndesign t\n",
      "dgrd 01x\ndesign t\n",
      "dgrd 4294967297\ndesign t\n",
      "dgrd\v1\ndesign\ft\n",
      "dgrd 1\ndesign\n",
      head + "nets 1\nnet n 2 0 0 5 5x\nend\n",
      head + "nets 1\nnet n 2 0 0 5x 5\nend\n",
      head + "nets 1\nnet n 2 +0 -0 +5 5\nend\n",
      head + "nets 1\nnet n 2 0 0 5 -+5\nend\n",
      head + "nets +1\nnet n 2 0 0 5 5\nendless\n",
      head + "nets 1\nnet n 2 0 0 5 5\n \rend\n",
      head + "nets 1\nnet n 2 0 0 5 5\n\tend\n",
      head + "nets 1\nnet n\xA0m 2 0 0 5 5\nend\n",
      head + std::string("nets 1\nnet n\0m 2 0 0 5 5\nend\n", 29),
      head + "nets 9223372036854775808\n",
      head + "nets -9223372036854775808\n",
      "dgrd 1\ndesign t\ngrid 6 6 2\nlayer H5\nlayer VV 2\n",
      "dgrd 1\ndesign t\ngrid 6 6 2\nlayer H5\nlayer V-0\nnets 0\nend\n",
  };
  for (std::size_t i = 0; i < texts.size(); ++i) {
    expect_same_parse(texts[i], {}, "edge case " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dgr
