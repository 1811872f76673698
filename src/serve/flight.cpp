#include "serve/flight.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "util/status.hpp"

namespace dgr::serve {

namespace {

void copy_field(char* dst, std::size_t cap, std::string_view v) {
  const std::size_t n = std::min(cap - 1, v.size());
  std::memcpy(dst, v.data(), n);
  dst[n] = '\0';
}

std::vector<std::string> split_sites(const char* joined) {
  std::vector<std::string> out;
  std::string_view rest(joined);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    out.emplace_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

void FlightRecord::set_id(std::string_view v) { copy_field(id, sizeof(id), v); }
void FlightRecord::set_op(std::string_view v) { copy_field(op, sizeof(op), v); }
void FlightRecord::set_session(std::string_view v) { copy_field(session, sizeof(session), v); }

void FlightRecord::set_fault_sites(const std::vector<std::string>& sites) {
  fault_fires = static_cast<std::uint32_t>(sites.size());
  std::string joined;
  for (const std::string& s : sites) {
    if (!joined.empty()) joined += ',';
    joined += s;
  }
  copy_field(fault_sites, sizeof(fault_sites), joined);
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  std::size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  ring_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

void FlightRecorder::record(const FlightRecord& rec) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = ring_[ticket & mask_];
  // Invalidate first so a reader holding the previous lap's sequence can
  // never validate a half-overwritten record, then publish with a release
  // store of this ticket's unique sequence.
  slot.seq.store(0, std::memory_order_relaxed);
  slot.rec = rec;
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::size_t FlightRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(head_.load(std::memory_order_acquire), capacity()));
}

obs::json::Value FlightRecorder::to_json(std::string_view reason) const {
  using obs::json::Value;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = capacity();
  const std::uint64_t begin = head > cap ? head - cap : 0;

  Value doc = Value::object();
  doc["schema"] = "dgr-flight-v1";
  doc["reason"] = std::string(reason);
  doc["capacity"] = cap;
  doc["recorded"] = head;
  Value records = Value::array();
  for (std::uint64_t t = begin; t < head; ++t) {
    const Slot& slot = ring_[t & mask_];
    if (slot.seq.load(std::memory_order_acquire) != t + 1) continue;
    FlightRecord rec = slot.rec;
    // Re-validate: a writer lapping us mid-copy bumped or zeroed the
    // sequence, so the copy above may be torn — drop it.
    if (slot.seq.load(std::memory_order_acquire) != t + 1) continue;
    Value r = Value::object();
    r["id"] = rec.id;
    r["op"] = rec.op;
    r["session"] = rec.session;
    r["status"] = std::string(status_code_name(static_cast<StatusCode>(rec.status)));
    r["latency_ms"] = rec.latency_ms;
    r["attempts"] = rec.attempts;
    r["degraded"] = rec.degraded;
    r["cancelled"] = rec.cancelled;
    r["queue_depth"] = static_cast<std::int64_t>(rec.queue_depth);
    Value sites = Value::array();
    for (const std::string& s : split_sites(rec.fault_sites)) sites.push_back(s);
    r["fault_sites"] = std::move(sites);
    r["fault_fires"] = static_cast<std::int64_t>(rec.fault_fires);
    records.push_back(std::move(r));
  }
  doc["dropped"] = head - records.size();
  doc["records"] = std::move(records);
  return doc;
}

bool FlightRecorder::dump(const std::string& path, std::string_view reason) {
  const obs::json::Value doc = to_json(reason);
  std::lock_guard<std::mutex> lock(dump_mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump(1) << "\n";
  if (!out) return false;
  dumps_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool require_number(const obs::json::Value& obj, std::string_view key, std::string* error) {
  const obs::json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    return fail(error, "missing or non-numeric field: " + std::string(key));
  }
  if (v->as_number() < 0) return fail(error, "negative field: " + std::string(key));
  return true;
}

bool require_string(const obs::json::Value& obj, std::string_view key, std::string* error) {
  const obs::json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    return fail(error, "missing or non-string field: " + std::string(key));
  }
  return true;
}

bool require_bool(const obs::json::Value& obj, std::string_view key, std::string* error) {
  const obs::json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_bool()) {
    return fail(error, "missing or non-bool field: " + std::string(key));
  }
  return true;
}

}  // namespace

bool validate_flight_json(const obs::json::Value& doc, std::string* error) {
  if (!doc.is_object()) return fail(error, "document is not an object");
  const obs::json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != "dgr-flight-v1") {
    return fail(error, "schema field is not \"dgr-flight-v1\"");
  }
  const obs::json::Value* reason = doc.find("reason");
  if (reason == nullptr || !reason->is_string() || reason->as_string().empty()) {
    return fail(error, "missing or empty reason");
  }
  if (!require_number(doc, "capacity", error) || !require_number(doc, "recorded", error) ||
      !require_number(doc, "dropped", error)) {
    return false;
  }
  if (doc.find("capacity")->as_number() < 1) return fail(error, "capacity < 1");
  const obs::json::Value* records = doc.find("records");
  if (records == nullptr || !records->is_array()) {
    return fail(error, "missing records array");
  }
  if (records->items().size() > doc.find("capacity")->as_number()) {
    return fail(error, "more records than capacity");
  }
  for (const obs::json::Value& r : records->items()) {
    if (!r.is_object()) return fail(error, "record is not an object");
    if (!require_string(r, "id", error) || !require_string(r, "op", error) ||
        !require_string(r, "session", error) || !require_string(r, "status", error)) {
      return false;
    }
    if (r.find("id")->as_string().empty()) return fail(error, "record with empty id");
    if (r.find("status")->as_string().empty()) return fail(error, "record with empty status");
    if (!require_number(r, "latency_ms", error) || !require_number(r, "attempts", error) ||
        !require_number(r, "queue_depth", error) || !require_number(r, "fault_fires", error)) {
      return false;
    }
    if (!require_bool(r, "degraded", error) || !require_bool(r, "cancelled", error)) {
      return false;
    }
    const obs::json::Value* sites = r.find("fault_sites");
    if (sites == nullptr || !sites->is_array()) {
      return fail(error, "record missing fault_sites array");
    }
    for (const obs::json::Value& s : sites->items()) {
      if (!s.is_string() || s.as_string().empty()) {
        return fail(error, "fault_sites entry is not a non-empty string");
      }
    }
  }
  return true;
}

}  // namespace dgr::serve
