#pragma once
// The .dgrd parser as it stood before design::try_read_design moved from
// one std::istringstream per line to a string_view scanner, kept verbatim
// (minus the io.parse fault point) as the reference for the differential
// parser test in io_test.cpp: both must accept and reject the same bytes
// with the same StatusCode and message, and parse the same Design.

#include <istream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "design/io.hpp"

namespace dgr::design::reference {

constexpr long long kMaxGridDim = 1 << 16;
constexpr long long kMaxGridCells = 1 << 26;
constexpr long long kMaxLayers = 256;
constexpr long long kMaxTracks = 1 << 20;
constexpr long long kMaxNets = 10'000'000;
constexpr long long kMaxPinsPerNet = 100'000;

inline Status parse_fail(int line, const std::string& what) {
  return Status(StatusCode::kParseError,
                "dgrd parse error at line " + std::to_string(line) + ": " + what);
}

inline Status limit_fail(const std::string& what) {
  return Status(StatusCode::kInvalidDesign, "dgrd input rejected: " + what);
}

inline Result<Design> try_read_design(std::istream& is, const DesignLimits& limits = {}) {
  int line_no = 0;
  std::string line;
  bool truncated = false;
  bool over_bytes = false;
  std::size_t bytes_read = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      // The byte cap counts everything consumed from the stream — blanks
      // and comments included — so a hostile sender cannot smuggle an
      // arbitrarily large request past the cap as comment padding.
      bytes_read += line.size() + 1;
      if (limits.max_input_bytes > 0 && bytes_read > limits.max_input_bytes) {
        over_bytes = true;
        return false;
      }
      // Skip blanks and # comments.
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      return true;
    }
    truncated = true;
    return false;
  };
  auto eof_fail = [&]() {
    if (over_bytes) {
      return limit_fail("input exceeds the configured byte cap (" +
                        std::to_string(limits.max_input_bytes) + " bytes)");
    }
    return parse_fail(line_no, "unexpected end of file");
  };

  if (!next_line()) return eof_fail();
  {
    std::istringstream ss(line);
    std::string magic;
    int version = 0;
    if (!(ss >> magic >> version) || magic != "dgrd" || version != 1) {
      return parse_fail(line_no, "expected header 'dgrd 1'");
    }
  }

  if (!next_line()) return eof_fail();
  std::string name;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> name) || kw != "design") {
      return parse_fail(line_no, "expected 'design <name>'");
    }
  }

  if (!next_line()) return eof_fail();
  // Dimensions are read as long long so negative or overflowing literals are
  // caught by explicit range checks instead of wrapping through int.
  long long w = 0, h = 0, layer_count = 0;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> w >> h >> layer_count) || kw != "grid") {
      return parse_fail(line_no, "expected 'grid <W> <H> <L>'");
    }
    if (w < 1 || h < 1 || layer_count < 1) {
      return parse_fail(line_no, "grid dimensions must be positive");
    }
    if (w > kMaxGridDim || h > kMaxGridDim || w * h > kMaxGridCells ||
        layer_count > kMaxLayers) {
      return parse_fail(line_no, "grid dimensions exceed format limits");
    }
  }

  std::vector<grid::LayerInfo> layers;
  for (long long i = 0; i < layer_count; ++i) {
    if (!next_line()) return eof_fail();
    std::istringstream ss(line);
    std::string kw;
    char dir = 0;
    long long tracks = -1;
    if (!(ss >> kw >> dir >> tracks) || kw != "layer" || (dir != 'H' && dir != 'V')) {
      return parse_fail(line_no, "expected 'layer <H|V> <tracks>'");
    }
    if (tracks < 0 || tracks > kMaxTracks) {
      return parse_fail(line_no, "layer track count out of range");
    }
    layers.push_back({dir == 'H' ? grid::Dir::kHorizontal : grid::Dir::kVertical,
                      static_cast<int>(tracks)});
  }

  if (!next_line()) return eof_fail();
  long long net_count = 0;
  {
    std::istringstream ss(line);
    std::string kw;
    if (!(ss >> kw >> net_count) || kw != "nets" || net_count < 0) {
      return parse_fail(line_no, "expected 'nets <N>' with N >= 0");
    }
    if (net_count > kMaxNets) return parse_fail(line_no, "net count exceeds format limit");
    if (limits.max_nets > 0 && net_count > limits.max_nets) {
      return limit_fail("net count " + std::to_string(net_count) +
                        " exceeds the configured cap (" + std::to_string(limits.max_nets) +
                        " nets)");
    }
  }

  long long total_pins = 0;
  std::vector<Net> nets;
  nets.reserve(static_cast<std::size_t>(net_count));
  std::unordered_set<std::string> seen_names;
  seen_names.reserve(static_cast<std::size_t>(net_count));
  for (long long i = 0; i < net_count; ++i) {
    if (!next_line()) return eof_fail();
    std::istringstream ss(line);
    std::string kw;
    Net net;
    long long npins = 0;
    if (!(ss >> kw >> net.name >> npins) || kw != "net" || npins <= 0) {
      return parse_fail(line_no, "expected 'net <name> <npins> ...'");
    }
    if (npins > kMaxPinsPerNet) return parse_fail(line_no, "pin count exceeds format limit");
    total_pins += npins;
    if (limits.max_total_pins > 0 && total_pins > limits.max_total_pins) {
      return limit_fail("total pin count exceeds the configured cap (" +
                        std::to_string(limits.max_total_pins) + " pins)");
    }
    if (!seen_names.insert(net.name).second) {
      return parse_fail(line_no, "duplicate net id '" + net.name + "'");
    }
    net.pins.reserve(static_cast<std::size_t>(npins));
    for (long long k = 0; k < npins; ++k) {
      long long x = 0, y = 0;
      if (!(ss >> x >> y)) return parse_fail(line_no, "net pin list truncated");
      if (x < 0 || y < 0 || x >= w || y >= h) {
        return parse_fail(line_no, "pin (" + std::to_string(x) + "," + std::to_string(y) +
                                       ") outside the grid");
      }
      net.pins.push_back({static_cast<geom::Coord>(x), static_cast<geom::Coord>(y)});
    }
    nets.push_back(std::move(net));
  }

  if (!next_line()) return eof_fail();
  if (line.substr(line.find_first_not_of(" \t"), 3) != "end") {
    return parse_fail(line_no, "expected 'end'");
  }

  // Design's own invariants (pin dedup, non-empty nets) are a second gate;
  // convert any rejection into a ParseError rather than letting it escape.
  try {
    return Design(std::move(name),
                  GCellGrid(static_cast<int>(w), static_cast<int>(h), std::move(layers)),
                  std::move(nets));
  } catch (const std::exception& e) {
    return parse_fail(line_no, std::string("design validation failed: ") + e.what());
  }
}

}  // namespace dgr::design::reference
