#include "design/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "util/fault.hpp"

namespace dgr::design {
namespace {

// Format limits: generous for any realistic g-cell instance, small enough
// that a corrupt count can never drive a runaway allocation or an integer
// overflow in grid arithmetic (cells and edges stay well inside int32).
constexpr long long kMaxGridDim = 1 << 16;        // per-axis g-cells
constexpr long long kMaxGridCells = 1 << 26;      // W*H
constexpr long long kMaxLayers = 256;
constexpr long long kMaxTracks = 1 << 20;
constexpr long long kMaxNets = 10'000'000;
constexpr long long kMaxPinsPerNet = 100'000;

Status parse_fail(int line, const std::string& what) {
  return Status(StatusCode::kParseError,
                "dgrd parse error at line " + std::to_string(line) + ": " + what);
}

Status limit_fail(const std::string& what) {
  return Status(StatusCode::kInvalidDesign, "dgrd input rejected: " + what);
}

/// Reads one line the way chained `std::istringstream >>` extractions do in
/// the classic locale, without building a stream: each read skips leading
/// whitespace; a word is the longest run of non-whitespace, a letter one
/// byte, and a number an optional sign plus the longest run of decimal
/// digits after it ("4x" reads 4 and leaves "x" for the next read). A read
/// with nothing to take, a number without digits, or one out of range for
/// long long fails, and so does every read after a failure.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : rest_(line) {}

  explicit operator bool() const { return ok_; }

  LineScanner& word(std::string_view& out) {
    if (!skip_space()) return *this;
    std::size_t n = 1;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return *this;
  }

  LineScanner& letter(char& out) {
    if (!skip_space()) return *this;
    out = rest_.front();
    rest_.remove_prefix(1);
    return *this;
  }

  LineScanner& number(long long& out) {
    if (!skip_space()) return *this;
    const char* first = rest_.data();
    const char* last = first + rest_.size();
    // from_chars takes a '-' but not a '+'; a sign must precede a digit.
    const char* digits = *first == '+' || *first == '-' ? first + 1 : first;
    if (digits == last || *digits < '0' || *digits > '9') {
      ok_ = false;
      return *this;
    }
    const auto [end, ec] = std::from_chars(*first == '+' ? digits : first, last, out);
    if (ec != std::errc()) {
      ok_ = false;
      return *this;
    }
    rest_.remove_prefix(static_cast<std::size_t>(end - first));
    return *this;
  }

 private:
  /// The classic-locale isspace set.
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
  }

  /// Drops leading whitespace; false (and failed) when nothing is left.
  bool skip_space() {
    if (!ok_) return false;
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
    ok_ = !rest_.empty();
    return ok_;
  }

  std::string_view rest_;
  bool ok_ = true;
};

/// Duplicate-name check over the nets already read: an open-addressing
/// table of indices into `nets`, so a name costs no allocation of its own.
/// It starts small and doubles with the nets actually read, never sized
/// from a declared count.
class NetNameIndex {
 public:
  /// Records `name` as the name of nets[index], unless an earlier net has
  /// it; false then. Every index already recorded must be in `nets`.
  bool insert(std::string_view name, std::size_t index, const std::vector<Net>& nets) {
    if (2 * (size_ + 1) > slots_.size()) grow(nets);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(name) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(index);
        ++size_;
        return true;
      }
      if (nets[slots_[i]].name == name) return false;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  static_assert(kMaxNets < kEmpty, "every net index must fit in a slot");

  static std::size_t hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  void grow(const std::vector<Net>& nets) {
    const std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint32_t index : old) {
      if (index == kEmpty) continue;
      std::size_t i = hash(nets[index].name) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = index;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace

void write_design(std::ostream& os, const Design& design) {
  const GCellGrid& grid = design.grid();
  os << "dgrd 1\n";
  os << "design " << (design.name().empty() ? "unnamed" : design.name()) << "\n";
  os << "grid " << grid.width() << " " << grid.height() << " " << grid.layer_count() << "\n";
  for (const auto& layer : grid.layers()) {
    os << "layer " << (layer.dir == grid::Dir::kHorizontal ? 'H' : 'V') << " "
       << layer.tracks << "\n";
  }
  os << "nets " << design.net_count() << "\n";
  for (const Net& net : design.nets()) {
    os << "net " << net.name << " " << net.pins.size();
    for (const Point& p : net.pins) os << " " << p.x << " " << p.y;
    os << "\n";
  }
  os << "end\n";
  if (!os) throw std::runtime_error("dgrd write failed");
}

void write_design_file(const std::string& path, const Design& design) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  write_design(os, design);
}

Result<Design> try_read_design(std::istream& is, const DesignLimits& limits) {
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

  if (DGR_FAULT_POINT("io.parse")) {
    return Status(StatusCode::kFaultInjected, "injected dgrd parse fault");
  }

  if (!next_line()) return eof_fail();
  {
    std::string_view magic;
    long long version = 0;
    if (!LineScanner(line).word(magic).number(version) || magic != "dgrd" || version != 1) {
      return parse_fail(line_no, "expected header 'dgrd 1'");
    }
  }

  if (!next_line()) return eof_fail();
  std::string name;
  {
    std::string_view kw, name_view;
    if (!LineScanner(line).word(kw).word(name_view) || kw != "design") {
      return parse_fail(line_no, "expected 'design <name>'");
    }
    name = name_view;
  }

  if (!next_line()) return eof_fail();
  // Dimensions are read as long long so negative or overflowing literals are
  // caught by explicit range checks instead of wrapping through int.
  long long w = 0, h = 0, layer_count = 0;
  {
    std::string_view kw;
    if (!LineScanner(line).word(kw).number(w).number(h).number(layer_count) || kw != "grid") {
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
    std::string_view kw;
    char dir = 0;
    long long tracks = -1;
    if (!LineScanner(line).word(kw).letter(dir).number(tracks) || kw != "layer" ||
        (dir != 'H' && dir != 'V')) {
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
    std::string_view kw;
    if (!LineScanner(line).word(kw).number(net_count) || kw != "nets" || net_count < 0) {
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
  NetNameIndex seen_names;
  for (long long i = 0; i < net_count; ++i) {
    if (!next_line()) return eof_fail();
    LineScanner ss(line);
    std::string_view kw, net_name;
    long long npins = 0;
    if (!ss.word(kw).word(net_name).number(npins) || kw != "net" || npins <= 0) {
      return parse_fail(line_no, "expected 'net <name> <npins> ...'");
    }
    Net net;
    net.name = net_name;
    if (npins > kMaxPinsPerNet) return parse_fail(line_no, "pin count exceeds format limit");
    total_pins += npins;
    if (limits.max_total_pins > 0 && total_pins > limits.max_total_pins) {
      return limit_fail("total pin count exceeds the configured cap (" +
                        std::to_string(limits.max_total_pins) + " pins)");
    }
    if (!seen_names.insert(net.name, nets.size(), nets)) {
      return parse_fail(line_no, "duplicate net id '" + net.name + "'");
    }
    net.pins.reserve(static_cast<std::size_t>(npins));
    for (long long k = 0; k < npins; ++k) {
      long long x = 0, y = 0;
      if (!ss.number(x).number(y)) return parse_fail(line_no, "net pin list truncated");
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

Result<Design> try_read_design_file(const std::string& path, const DesignLimits& limits) {
  std::ifstream is(path);
  if (!is) return Status(StatusCode::kNotFound, "cannot open for read: " + path);
  return try_read_design(is, limits);
}

}  // namespace dgr::design
