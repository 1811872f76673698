#pragma once
/// \file
/// The dgr::serve daemon core: admission control, a bounded job queue,
/// worker threads over the routing pipeline, per-request deadlines, and
/// graceful shutdown.
///
/// Request life cycle (DESIGN.md §10 has the state machine):
///
///   submit ── parse ──► control op? ──► answered inline (ping/stats/…)
///              │
///              ├─ admission: shutting down / rate limited / queue full /
///              │             serve.enqueue fault  ──► REJECTED (typed)
///              ▼
///           queued ──► worker: deadline already passed ──► FAILED
///              │                serve.dispatch fault    ──► FAILED
///              ▼
///           running ──► retry-on-divergence ──► degrade-on-final ──► OK
///              │                                        │
///              └── deadline expired or cancelling shutdown
///                  (no fallback) / poisoned request ──► FAILED (typed)
///
/// Accounting invariant, checked by the chaos load test and reported by
/// "stats": every submitted line is counted exactly once as succeeded,
/// rejected (refused before the queue), or failed (accepted but answered
/// ok:false) — offered = succeeded + rejected + failed. The daemon never
/// crashes on a request: worker dispatch is exception-isolated, so a
/// poisoned request becomes a typed kInternal/kInvalidDesign response, not
/// process death.
///
/// Retry policy ("route"): a kNumericDivergence from the primary router is
/// retried with a reseeded solver (seed + attempt * golden-ratio) while
/// attempts remain — StageBudgets::degrade_on_divergence is false for
/// non-final attempts so the divergence surfaces instead of degrading. The
/// final attempt restores the PR 3 contract: divergence (and timeouts,
/// resource exhaustion, injected faults) degrade to the fallback router.
///
/// Deadlines: every data-plane job carries one util::Deadline at
/// submitted + deadline_ms (no time limit without one), tied to the
/// server's cancel-all flag, so it covers queue wait + execution and also
/// expires when shutdown(false) raises that flag. handle_route sets it on
/// the session context for each attempt; the solver polls it every train
/// iteration, the baselines between rounds.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "design/io.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/deadline.hpp"

namespace dgr::serve {

/// Service-level objectives behind the serve.slo.* gauges (DESIGN.md §10).
struct SloOptions {
  /// Requests should finish within this many milliseconds...
  double latency_objective_ms = 500.0;
  /// ...for at least this fraction of traffic (0.99 = "p99 under
  /// objective"). latency_budget_burn = over-objective fraction / (1 -
  /// target): burn > 1 means the latency budget is being spent faster than
  /// the SLO allows.
  double latency_target = 0.99;
  /// Required fraction of finished requests that did not fail
  /// (rejections are load shedding, not unavailability).
  double availability_target = 0.999;
};

struct ServerOptions {
  int workers = 2;                  ///< routing worker threads
  std::size_t queue_capacity = 16;  ///< bounded admission queue
  /// Default per-request deadline (ms); 0 = none. A request's own
  /// "deadline_ms" overrides.
  double default_deadline_ms = 0.0;
  std::string default_router = "dgr";
  std::string fallback_router = "cugr2-lite";  ///< degradation target
  /// DGR iteration count applied when the request does not override; 0
  /// keeps router_options.dgr.iterations.
  int default_iterations = 60;
  /// Partition count applied when the request carries no "partitions"
  /// field: >= 2 routes every request through the "partitioned" engine
  /// (the requested router becomes its region router); 0/1 = sequential.
  int default_partitions = 0;
  /// Route attempts per request (>= 1); non-final attempts surface
  /// kNumericDivergence for a reseeded retry.
  int max_attempts = 2;
  /// Token-bucket admission rate (requests/second); 0 disables.
  double rate_limit_per_sec = 0.0;
  double rate_burst = 8.0;  ///< bucket capacity
  /// Untrusted-input caps forwarded to design::try_read_design.
  design::DesignLimits design_limits;
  SessionCacheOptions cache;
  /// Base engine options; per-request fields (seed, iterations, telemetry)
  /// are stamped over a copy.
  pipeline::RouterOptions router_options;
  /// Flushed on shutdown when non-empty; rewritten every
  /// metrics_interval_s while running when the exporter is on.
  std::string metrics_snapshot_path;
  std::string trace_path;  ///< Chrome trace (needs obs::set_tracing upstream)
  /// Continuous export period in seconds; 0 keeps flush-at-shutdown only.
  /// The exporter thread rewrites metrics_snapshot_path and
  /// prometheus_path (whichever are set) every interval.
  double metrics_interval_s = 0.0;
  /// Prometheus text-exposition file (a node_exporter-style scrape target);
  /// written by the exporter and at shutdown when non-empty.
  std::string prometheus_path;
  /// SLO objectives for the serve.slo.* gauges.
  SloOptions slo;
  /// Flight-recorder ring capacity (rounded up to a power of two).
  std::size_t flight_capacity = 256;
  /// Flight-recorder artifact path, dumped on any INTERNAL response, on a
  /// job whose deadline had expired when its handler returned, and at
  /// shutdown. Empty = no dumps (the ring still records and reports through
  /// "stats").
  std::string flight_path;
};

class Server {
 public:
  /// Receives the serialized one-line response (no trailing newline). May
  /// be invoked from a worker thread; transports serialise their writes.
  using Sink = std::function<void(const std::string&)>;

  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the workers (and the exporter, when configured). Idempotent.
  void start();

  /// Handles one request line. Control ops (ping/stats/shutdown) and
  /// admission rejections answer `sink` inline on the calling thread; data
  /// ops answer later from a worker.
  void submit(const std::string& line, Sink sink);

  /// Blocking convenience (tests, load generator): submit + wait.
  std::string call(const std::string& line);

  /// Stops the daemon. `drain` answers the queued jobs before stopping;
  /// otherwise queued jobs are answered kCancelled and the cancel-all flag
  /// expires every in-flight job's deadline. Flushes the metrics snapshot /
  /// trace when configured. Idempotent.
  void shutdown(bool drain = true);

  /// A "shutdown" request was received; the transport should exit its read
  /// loop and call shutdown().
  bool stop_requested() const { return stop_requested_.load(std::memory_order_relaxed); }

  // ---- introspection (tests, stats op) -------------------------------------
  struct Accounting {
    std::int64_t offered = 0;
    std::int64_t succeeded = 0;
    std::int64_t rejected = 0;
    std::int64_t failed = 0;
  };
  Accounting accounting() const;

  SessionCache& sessions() { return sessions_; }
  const ServerOptions& options() const { return options_; }
  std::size_t queue_depth() const;
  FlightRecorder& flight() { return flight_; }

 private:
  enum class Outcome { kSucceeded, kRejected, kFailed };

  struct Job {
    Request request;
    Sink sink;
    std::chrono::steady_clock::time_point submitted;
    /// When the routing stages stop: submitted + deadline_ms, or the
    /// server's cancel-all flag, whichever comes first.
    util::Deadline deadline;
    // Flight-recorder context, filled as the request moves through its
    // lifecycle (admission depth at enqueue, attempts/degraded by
    // handle_route, cancelled by execute) and harvested by respond().
    std::uint32_t queue_depth_at_admission = 0;
    int attempts = 0;
    bool degraded = false;
    bool cancelled = false;  ///< deadline had expired when the handler returned
  };

  void worker_loop();
  void exporter_loop();

  /// Single exit point for every request: classifies the outcome into the
  /// accounting counters, observes latency, serialises, and invokes the
  /// sink. Exactly one respond() per submitted line keeps the accounting
  /// invariant true by construction.
  void respond(const Job& job, Response response, Outcome outcome);

  /// True when the job was admitted; false when it was rejected (already
  /// answered).
  bool admit(Job job);

  void execute(Job& job);
  Response handle_load(const Job& job);
  Response handle_route(Job& job);
  Response handle_eco(const Job& job);
  Response handle_stats(const Request& request);
  Response handle_metrics(const Request& request);

  /// Recomputes the serve.slo.* gauges from the latency histogram and the
  /// accounting counters (cheap: one walk over ~14 buckets).
  void update_slo_gauges();
  /// Appends the request to the flight ring; dumps the artifact when the
  /// response is INTERNAL or the job was cancelled.
  void record_flight(const Job& job, const Response& response, double latency_ms);
  /// One exporter tick: refresh SLO gauges, rewrite the snapshot /
  /// Prometheus files.
  void export_artifacts();

  void flush_artifacts();

  ServerOptions options_;
  SessionCache sessions_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stop_workers_ = false;
  double rate_tokens_ = 0.0;
  std::chrono::steady_clock::time_point rate_last_;

  /// Raised by shutdown(false); every job's deadline reads it.
  std::atomic<bool> cancel_all_{false};

  FlightRecorder flight_;

  std::vector<std::thread> workers_;
  std::thread exporter_;
  std::atomic<bool> exporter_stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> in_flight_{0};

  std::atomic<std::int64_t> offered_{0};
  std::atomic<std::int64_t> succeeded_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> failed_{0};
};

}  // namespace dgr::serve
