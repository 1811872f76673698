#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/fault.hpp"

namespace dgr::serve {

namespace {

using obs::json::Value;

/// Field accessors with typed failures. A missing optional field leaves the
/// default; a present field of the wrong JSON type is a kParseError (the
/// client sent a well-formed but type-broken document — reject, don't
/// guess).
Status read_string(const Value& doc, const char* key, std::string* out, bool* present = nullptr) {
  const Value* v = doc.find(key);
  if (present != nullptr) *present = v != nullptr;
  if (v == nullptr) return Status();
  if (!v->is_string()) {
    return Status(StatusCode::kParseError,
                  std::string("request field '") + key + "' must be a string");
  }
  *out = v->as_string();
  return Status();
}

Status read_number(const Value& doc, const char* key, double* out, bool* present = nullptr) {
  const Value* v = doc.find(key);
  if (present != nullptr) *present = v != nullptr;
  if (v == nullptr) return Status();
  if (!v->is_number()) {
    return Status(StatusCode::kParseError,
                  std::string("request field '") + key + "' must be a number");
  }
  *out = v->as_number();
  return Status();
}

Status read_bool(const Value& doc, const char* key, bool* out) {
  const Value* v = doc.find(key);
  if (v == nullptr) return Status();
  if (!v->is_bool()) {
    return Status(StatusCode::kParseError,
                  std::string("request field '") + key + "' must be a boolean");
  }
  *out = v->as_bool();
  return Status();
}

/// Range checks for the numbers that are cast to an integer type: a cast
/// from a double outside the target range (1e309 parses as infinity) is
/// undefined. 2^64 is exact in a double.
bool fits_u64(double v) { return v >= 0.0 && v < 18446744073709551616.0; }
bool fits_int(double v) {
  return v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max();
}

Status bad_mutation(const std::string& what) {
  return Status(StatusCode::kInvalidArgument, "eco mutation: " + what);
}

/// [x, y] -> Point.
Status parse_point(const Value& v, geom::Point* out) {
  if (!v.is_array() || v.items().size() != 2 || !v.items()[0].is_number() ||
      !v.items()[1].is_number()) {
    return bad_mutation("a pin must be a [x, y] number pair");
  }
  const double x = v.items()[0].as_number();
  const double y = v.items()[1].as_number();
  if (x < 0 || y < 0 || x > std::numeric_limits<geom::Coord>::max() ||
      y > std::numeric_limits<geom::Coord>::max() || x != std::floor(x) ||
      y != std::floor(y)) {
    return bad_mutation("pin coordinates must be non-negative integers");
  }
  out->x = static_cast<geom::Coord>(x);
  out->y = static_cast<geom::Coord>(y);
  return Status();
}

Status parse_index_list(const Value& doc, const char* key, std::vector<std::size_t>* out) {
  const Value* v = doc.find(key);
  if (v == nullptr || !v->is_array()) {
    return bad_mutation(std::string("'") + key + "' must be an array of net indices");
  }
  out->reserve(v->items().size());
  for (const Value& item : v->items()) {
    if (!item.is_number() || !fits_u64(item.as_number()) ||
        item.as_number() != std::floor(item.as_number())) {
      return bad_mutation(std::string("'") + key + "' entries must be non-negative integers");
    }
    out->push_back(static_cast<std::size_t>(item.as_number()));
  }
  return Status();
}

Status parse_blockage(const Value& doc, design::Blockage* out) {
  const Value* rect = doc.find("rect");
  if (rect == nullptr || !rect->is_array() || rect->items().size() != 4) {
    return bad_mutation("'rect' must be [x0, y0, x1, y1]");
  }
  geom::Point lo, hi;
  DGR_RETURN_IF_ERROR(parse_point(
      [&] {
        Value v = Value::array();
        v.push_back(rect->items()[0]);
        v.push_back(rect->items()[1]);
        return v;
      }(),
      &lo));
  DGR_RETURN_IF_ERROR(parse_point(
      [&] {
        Value v = Value::array();
        v.push_back(rect->items()[2]);
        v.push_back(rect->items()[3]);
        return v;
      }(),
      &hi));
  if (hi.x < lo.x || hi.y < lo.y) return bad_mutation("'rect' must satisfy x0<=x1, y0<=y1");
  out->rect = {lo, hi};
  double scale = 0.0;
  DGR_RETURN_IF_ERROR(read_number(doc, "scale", &scale));
  if (scale < 0.0 || scale > 1.0) return bad_mutation("'scale' must be in [0, 1]");
  out->scale = static_cast<float>(scale);
  return Status();
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kLoad: return "load";
    case Op::kRoute: return "route";
    case Op::kEco: return "eco";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Result<design::Mutation> parse_mutation(const Value& doc) {
  if (!doc.is_object()) return bad_mutation("payload must be an object");
  design::Mutation m;
  std::string kind;
  DGR_RETURN_IF_ERROR(read_string(doc, "kind", &kind));
  if (kind == "move_pins") {
    m.kind = design::MutationKind::kMovePins;
    DGR_RETURN_IF_ERROR(parse_index_list(doc, "nets", &m.nets));
    const Value* pins = doc.find("pins");
    if (pins == nullptr || !pins->is_array() || pins->items().size() != m.nets.size()) {
      return bad_mutation("'pins' must be an array of pin lists, parallel to 'nets'");
    }
    m.new_pins.reserve(pins->items().size());
    for (const Value& list : pins->items()) {
      if (!list.is_array() || list.items().empty()) {
        return bad_mutation("each entry of 'pins' must be a non-empty array of [x, y]");
      }
      std::vector<geom::Point> pts;
      pts.reserve(list.items().size());
      for (const Value& p : list.items()) {
        geom::Point pt;
        DGR_RETURN_IF_ERROR(parse_point(p, &pt));
        pts.push_back(pt);
      }
      m.new_pins.push_back(std::move(pts));
    }
  } else if (kind == "add_nets") {
    m.kind = design::MutationKind::kAddNets;
    const Value* add = doc.find("add");
    if (add == nullptr || !add->is_array() || add->items().empty()) {
      return bad_mutation("'add' must be a non-empty array of {name, pins, class?}");
    }
    for (const Value& entry : add->items()) {
      if (!entry.is_object()) return bad_mutation("'add' entries must be objects");
      design::Net net;
      DGR_RETURN_IF_ERROR(read_string(entry, "name", &net.name));
      if (net.name.empty()) return bad_mutation("added nets need a non-empty 'name'");
      const Value* pins = entry.find("pins");
      if (pins == nullptr || !pins->is_array() || pins->items().empty()) {
        return bad_mutation("added nets need a non-empty 'pins' array");
      }
      for (const Value& p : pins->items()) {
        geom::Point pt;
        DGR_RETURN_IF_ERROR(parse_point(p, &pt));
        net.pins.push_back(pt);
      }
      double cls = 0.0;
      DGR_RETURN_IF_ERROR(read_number(entry, "class", &cls));
      if (!fits_int(cls)) return bad_mutation("'class' is out of range");
      m.added.push_back(std::move(net));
      m.added_class.push_back(static_cast<int>(cls));
    }
  } else if (kind == "remove_nets") {
    m.kind = design::MutationKind::kRemoveNets;
    DGR_RETURN_IF_ERROR(parse_index_list(doc, "nets", &m.nets));
    if (m.nets.empty()) return bad_mutation("'nets' must name at least one net");
  } else if (kind == "add_blockage" || kind == "move_blockage") {
    m.kind = kind == "add_blockage" ? design::MutationKind::kAddBlockage
                                    : design::MutationKind::kMoveBlockage;
    DGR_RETURN_IF_ERROR(parse_blockage(doc, &m.blockage));
    if (m.kind == design::MutationKind::kMoveBlockage) {
      double index = 0.0;
      DGR_RETURN_IF_ERROR(read_number(doc, "index", &index));
      if (!fits_u64(index)) return bad_mutation("'index' is out of range");
      m.blockage_index = static_cast<std::size_t>(index);
    }
  } else if (kind == "remove_blockage") {
    m.kind = design::MutationKind::kRemoveBlockage;
    double index = 0.0;
    DGR_RETURN_IF_ERROR(read_number(doc, "index", &index));
    if (!fits_u64(index)) return bad_mutation("'index' is out of range");
    m.blockage_index = static_cast<std::size_t>(index);
  } else if (kind == "reweight_class") {
    m.kind = design::MutationKind::kReweightClass;
    double cls = 0.0, weight = 1.0;
    DGR_RETURN_IF_ERROR(read_number(doc, "class", &cls));
    DGR_RETURN_IF_ERROR(read_number(doc, "weight", &weight));
    if (!(weight > 0.0) || !std::isfinite(weight)) {
      return bad_mutation("'weight' must be a positive finite number");
    }
    if (!fits_int(cls)) return bad_mutation("'class' is out of range");
    m.net_class = static_cast<int>(cls);
    m.new_weight = static_cast<float>(weight);
  } else {
    return bad_mutation("unknown kind '" + kind + "'");
  }
  m.label = "serve:" + kind;
  return m;
}

Result<Request> parse_request(const std::string& line) {
  if (DGR_FAULT_POINT("serve.parse")) {
    return Status(StatusCode::kFaultInjected, "injected request-parse fault");
  }
  Value doc;
  std::string json_error;
  if (!Value::parse(line, &doc, &json_error)) {
    return Status(StatusCode::kParseError, "request is not JSON: " + json_error);
  }
  if (!doc.is_object()) {
    return Status(StatusCode::kParseError, "request must be a JSON object");
  }

  Request req;
  DGR_RETURN_IF_ERROR(read_string(doc, "id", &req.id));
  std::string op;
  DGR_RETURN_IF_ERROR(read_string(doc, "op", &op));
  if (op == "ping") {
    req.op = Op::kPing;
  } else if (op == "load") {
    req.op = Op::kLoad;
  } else if (op == "route") {
    req.op = Op::kRoute;
  } else if (op == "eco") {
    req.op = Op::kEco;
  } else if (op == "stats") {
    req.op = Op::kStats;
  } else if (op == "metrics") {
    req.op = Op::kMetrics;
  } else if (op == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  op.empty() ? "request is missing 'op'" : "unknown op '" + op + "'");
  }

  DGR_RETURN_IF_ERROR(read_string(doc, "session", &req.session));
  DGR_RETURN_IF_ERROR(read_string(doc, "design", &req.design_text));
  DGR_RETURN_IF_ERROR(read_string(doc, "path", &req.design_path));
  DGR_RETURN_IF_ERROR(read_string(doc, "router", &req.router));
  DGR_RETURN_IF_ERROR(read_string(doc, "fallback", &req.fallback));

  double seed = 0.0;
  DGR_RETURN_IF_ERROR(read_number(doc, "seed", &seed, &req.has_seed));
  if (req.has_seed) {
    if (!fits_u64(seed)) {
      return Status(StatusCode::kInvalidArgument, "'seed' must be in [0, 2^64)");
    }
    req.seed = static_cast<std::uint64_t>(seed);
  }
  double deadline = 0.0;
  DGR_RETURN_IF_ERROR(read_number(doc, "deadline_ms", &deadline));
  // The bound keeps submit's steady_clock offset inside its int64 range.
  if (deadline < 0.0 || deadline > 1e9) {
    return Status(StatusCode::kInvalidArgument, "'deadline_ms' must be in [0, 1e9]");
  }
  req.deadline_ms = deadline;
  double iterations = 0.0;
  DGR_RETURN_IF_ERROR(read_number(doc, "iterations", &iterations));
  if (iterations < 0.0 || iterations > 1e9) {
    return Status(StatusCode::kInvalidArgument, "'iterations' out of range");
  }
  req.iterations = static_cast<int>(iterations);
  double partitions = 0.0;
  DGR_RETURN_IF_ERROR(read_number(doc, "partitions", &partitions, &req.has_partitions));
  if (req.has_partitions) {
    if (partitions < 1.0 || partitions > 64.0 ||
        partitions != std::floor(partitions)) {
      return Status(StatusCode::kInvalidArgument,
                    "'partitions' must be an integer in [1, 64]");
    }
    req.partitions = static_cast<int>(partitions);
  }
  DGR_RETURN_IF_ERROR(read_bool(doc, "telemetry", &req.telemetry));
  DGR_RETURN_IF_ERROR(read_bool(doc, "keep", &req.keep));
  DGR_RETURN_IF_ERROR(read_string(doc, "format", &req.format));

  switch (req.op) {
    case Op::kLoad:
      if (req.session.empty()) {
        return Status(StatusCode::kInvalidArgument, "load needs a 'session' key");
      }
      if (req.design_text.empty() == req.design_path.empty()) {
        return Status(StatusCode::kInvalidArgument,
                      "load needs exactly one of 'design' (inline) or 'path'");
      }
      break;
    case Op::kRoute:
      if (req.session.empty()) {
        return Status(StatusCode::kInvalidArgument, "route needs a 'session' key");
      }
      break;
    case Op::kEco: {
      if (req.session.empty()) {
        return Status(StatusCode::kInvalidArgument, "eco needs a 'session' key");
      }
      const Value* mut = doc.find("mutation");
      if (mut == nullptr) {
        return Status(StatusCode::kInvalidArgument, "eco needs a 'mutation' object");
      }
      bool generate = false;
      DGR_RETURN_IF_ERROR(read_bool(*mut, "generate", &generate));
      if (generate) {
        req.generate_mutation = true;
        double mseed = 1.0;
        DGR_RETURN_IF_ERROR(read_number(*mut, "seed", &mseed));
        if (!fits_u64(mseed)) {
          return Status(StatusCode::kInvalidArgument, "mutation 'seed' must be in [0, 2^64)");
        }
        req.mutation_seed = static_cast<std::uint64_t>(mseed);
      } else {
        Result<design::Mutation> parsed = parse_mutation(*mut);
        if (!parsed.ok()) return parsed.status();
        req.mutation = parsed.take();
      }
      req.has_mutation = true;
      break;
    }
    case Op::kMetrics:
      if (req.format.empty()) req.format = "json";
      if (req.format != "json" && req.format != "prometheus") {
        return Status(StatusCode::kInvalidArgument,
                      "metrics 'format' must be \"json\" or \"prometheus\"");
      }
      break;
    default:
      break;
  }
  return req;
}

std::string recover_request_id(const std::string& line) {
  Value doc;
  if (Value::parse(line, &doc) && doc.is_object()) {
    const Value* id = doc.find("id");
    if (id != nullptr && id->is_string()) return id->as_string();
  }
  return "";
}

Response error_response(std::string id, std::string op, Status status) {
  Response r;
  r.id = std::move(id);
  r.op = std::move(op);
  r.status = std::move(status);
  return r;
}

std::string serialize_response(const Response& response) {
  // A fault here models a corrupted serialisation path; the fallback is a
  // hand-assembled minimal envelope that is still valid JSON, so clients
  // always get a parseable, correlatable answer.
  if (DGR_FAULT_POINT("serve.respond")) {
    Value doc = Value::object();
    doc["id"] = response.id;
    doc["op"] = response.op;
    doc["ok"] = false;
    Value& err = doc["error"];
    err["code"] = std::string(status_code_name(StatusCode::kFaultInjected));
    err["message"] = "injected respond fault";
    return doc.dump(0);
  }
  Value doc = Value::object();
  doc["id"] = response.id;
  doc["op"] = response.op;
  doc["ok"] = response.status.ok();
  if (response.status.ok()) {
    doc["result"] = response.result.is_object() ? response.result : Value::object();
  } else {
    Value& err = doc["error"];
    err["code"] = std::string(status_code_name(response.status.code()));
    err["message"] = response.status.message();
  }
  return doc.dump(0);
}

bool validate_response_json(const Value& doc, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!doc.is_object()) return fail("response is not an object");
  const Value* id = doc.find("id");
  if (id == nullptr || !id->is_string()) return fail("missing string 'id'");
  const Value* op = doc.find("op");
  if (op == nullptr || !op->is_string()) return fail("missing string 'op'");
  const Value* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool()) return fail("missing bool 'ok'");
  const Value* result = doc.find("result");
  const Value* err = doc.find("error");
  if (ok->as_bool()) {
    if (result == nullptr || !result->is_object()) return fail("ok response needs object 'result'");
    if (err != nullptr) return fail("ok response must not carry 'error'");
  } else {
    if (err == nullptr || !err->is_object()) return fail("error response needs object 'error'");
    if (result != nullptr) return fail("error response must not carry 'result'");
    const Value* code = err->find("code");
    const Value* message = err->find("message");
    if (code == nullptr || !code->is_string()) return fail("'error' needs string 'code'");
    if (message == nullptr || !message->is_string()) return fail("'error' needs string 'message'");
  }
  return true;
}

}  // namespace dgr::serve
