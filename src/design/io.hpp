#pragma once
// Plain-text design interchange format ("dgrd").
//
// The contest LEF/DEF files are not available offline, so the repo defines a
// minimal, line-oriented design format with the information global routing
// needs: grid extent, layer stack (direction + tracks) and nets with g-cell
// pin locations. Generated designs can be saved/loaded so experiments are
// replayable without rerunning the generator.
//
//   dgrd 1
//   design <name>
//   grid <W> <H> <L>
//   layer <H|V> <tracks>          (L lines, bottom-up)
//   nets <N>
//   net <name> <npins> <x> <y> [<x> <y> ...]
//   end
//
// The parser is hardened against hostile input: truncated files, numeric
// overflow/negative counts, zero/absurd grid dimensions, duplicate net ids
// and out-of-grid pins all yield a typed ParseError with the offending line
// number — never a crash, hang or runaway allocation (see the format limits
// in io.cpp).

#include <iosfwd>
#include <string>

#include "design/design.hpp"
#include "util/status.hpp"

namespace dgr::design {

/// Serialises a design; throws std::runtime_error on stream failure.
void write_design(std::ostream& os, const Design& design);
void write_design_file(const std::string& path, const Design& design);

/// Admission caps for parsing *untrusted* design input (a request arriving
/// over the serve daemon's socket). The parser's built-in format limits
/// guard against overflow and runaway allocation; these caps additionally
/// bound the total size a single request may hand the process. A cap of 0
/// disables that dimension. Violations return StatusCode::kInvalidDesign
/// with the exceeded limit named in the message — distinct from
/// kParseError, which keeps meaning "malformed".
struct DesignLimits {
  std::size_t max_input_bytes = 0;  ///< total bytes consumed from the stream
  long long max_nets = 0;           ///< declared net count
  long long max_total_pins = 0;     ///< pins summed over all nets
};

/// Parses a design. On malformed input returns StatusCode::kParseError with
/// a line-numbered message; on a missing file, kNotFound; on input that is
/// well-formed but exceeds `limits`, kInvalidDesign. Never throws for bad
/// input.
Result<Design> try_read_design(std::istream& is, const DesignLimits& limits = {});
Result<Design> try_read_design_file(const std::string& path,
                                    const DesignLimits& limits = {});

}  // namespace dgr::design
