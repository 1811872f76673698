#pragma once
/// \file
/// Failure flight recorder: the daemon's black box (DESIGN.md §10).
///
/// A bounded lock-free ring of fixed-size per-request summaries. Every
/// response appends one record on its way out; the ring overwrites its
/// oldest lap, so at any moment it holds the last `capacity` requests. On
/// an INTERNAL response, a cancelled request, or shutdown the server
/// dumps the ring as a `dgr-flight-v1` JSON artifact — enough context
/// (status, latency, retries, degradation, fault sites fired, queue depth
/// at admission) to reconstruct what the daemon was doing when it broke,
/// without any per-request allocation on the happy path.
///
/// Concurrency: record() is wait-free for writers (one fetch_add to claim a
/// ticket, POD stores, one release publish of the slot's sequence). Readers
/// (to_json/dump) never block writers: a slot whose sequence does not match
/// the expected ticket — being overwritten mid-read — is skipped and
/// counted as dropped, the classic seqlock bargain.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace dgr::serve {

/// One request's summary. POD with fixed-size fields so a slot write is a
/// plain member-wise store (no allocation, safe to overwrite concurrently
/// with a reader that will detect the race via the slot sequence). Strings
/// are NUL-terminated and silently truncated to the field size.
struct FlightRecord {
  char id[48] = {};
  char op[16] = {};
  char session[40] = {};
  char fault_sites[96] = {};  ///< comma-joined site names, possibly truncated
  double latency_ms = 0.0;
  int status = 0;  ///< util::StatusCode of the response
  int attempts = 0;  ///< router attempts run (0 for non-route/eco ops)
  std::uint32_t queue_depth = 0;  ///< depth observed at admission
  std::uint32_t fault_fires = 0;  ///< fires attributed to this request
  bool degraded = false;  ///< fallback router produced the response
  /// The request's deadline (its time limit or a cancelling shutdown) had
  /// expired when its handler returned.
  bool cancelled = false;

  void set_id(std::string_view v);
  void set_op(std::string_view v);
  void set_session(std::string_view v);
  /// Comma-joins `sites` into fault_sites (truncating once full) and stores
  /// the true count in fault_fires.
  void set_fault_sites(const std::vector<std::string>& sites);
};

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit FlightRecorder(std::size_t capacity = 256);

  /// Appends one record, overwriting the oldest lap when full. Wait-free.
  void record(const FlightRecord& rec);

  std::size_t capacity() const { return mask_ + 1; }
  /// Records currently readable (<= capacity). Approximate under load.
  std::size_t size() const;
  /// Records ever written.
  std::uint64_t total() const { return head_.load(std::memory_order_acquire); }
  /// Completed dump() calls.
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_acquire); }

  /// The ring as a `dgr-flight-v1` document, oldest record first. `reason`
  /// names the trigger: "internal", "cancelled", "shutdown" (tests use
  /// "manual").
  obs::json::Value to_json(std::string_view reason) const;

  /// Writes to_json(reason) to `path` (serialised against concurrent
  /// dumps; last dump wins the file). Returns false on I/O failure.
  bool dump(const std::string& path, std::string_view reason);

 private:
  struct Slot {
    /// ticket+1 once the record for that ticket is fully published; any
    /// other value means empty or mid-overwrite.
    std::atomic<std::uint64_t> seq{0};
    FlightRecord rec;
  };

  std::unique_ptr<Slot[]> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dumps_{0};
  std::mutex dump_mu_;
};

/// Schema check for dgr-flight-v1 documents (mirrors
/// obs::validate_bench_json; used by bench/check_bench_schema and tests).
bool validate_flight_json(const obs::json::Value& doc, std::string* error = nullptr);

}  // namespace dgr::serve
