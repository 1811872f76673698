#include "serve/server.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "pipeline/registry.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace dgr::serve {

namespace {

using obs::json::Value;

constexpr std::uint64_t kReseedStride = 0x9E3779B97F4A7C15ull;  // golden ratio

obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "serve.latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  return h;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

Value metrics_to_json(const eval::Metrics& m) {
  Value v = Value::object();
  v["wirelength"] = m.wirelength;
  v["overflow_edges"] = m.overflow_edges;
  v["total_overflow"] = m.total_overflow;
  v["peak_overflow"] = m.peak_overflow;
  v["bends"] = m.bends;
  return v;
}

Value attempt_to_json(const pipeline::RouteAttempt& a) {
  Value v = Value::object();
  v["router"] = a.router;
  v["status"] = std::string(status_code_name(a.status.code()));
  v["rollbacks"] = a.rollbacks;
  v["degraded"] = a.degraded;
  v["telemetry_samples"] = a.convergence.size();
  return v;
}

/// Quantile estimate from the fixed-bucket histogram: find the bucket the
/// rank falls in, interpolate linearly within it (the overflow bucket
/// reports its lower bound — there is no upper edge to interpolate to).
/// Deterministic given the bucket counts.
double histogram_quantile(const obs::Histogram& h, double q) {
  const std::vector<double>& bounds = h.bounds();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) total += h.bucket(i);
  if (total <= 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const double in_bucket = static_cast<double>(h.bucket(i));
    cumulative += in_bucket;
    if (cumulative >= rank) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = in_bucket > 0.0 ? (rank - (cumulative - in_bucket)) / in_bucket : 1.0;
      return lo + frac * (hi - lo);
    }
  }
  return bounds.back();
}

/// Fraction of observations <= x, interpolating within the containing
/// bucket. 1.0 on an empty histogram (no traffic = no SLO violation).
double histogram_fraction_le(const obs::Histogram& h, double x) {
  const std::vector<double>& bounds = h.bounds();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) total += h.bucket(i);
  if (total <= 0) return 1.0;
  double below = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double in_bucket = static_cast<double>(h.bucket(i));
    if (x >= hi) {
      below += in_bucket;
    } else if (x > lo) {
      below += in_bucket * (x - lo) / (hi - lo);
      break;
    } else {
      break;
    }
  }
  return below / static_cast<double>(total);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      sessions_(options_.cache),
      flight_(options_.flight_capacity == 0 ? 256 : options_.flight_capacity) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Server::~Server() { shutdown(false); }

void Server::start() {
  if (started_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    rate_tokens_ = options_.rate_burst;
    rate_last_ = std::chrono::steady_clock::now();
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.metrics_interval_s > 0.0 &&
      (!options_.metrics_snapshot_path.empty() || !options_.prometheus_path.empty())) {
    exporter_ = std::thread([this] { exporter_loop(); });
  }
  DGR_LOG_INFO("serve: started %d workers, queue capacity %zu", options_.workers,
               options_.queue_capacity);
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

Server::Accounting Server::accounting() const {
  Accounting a;
  a.offered = offered_.load(std::memory_order_relaxed);
  a.succeeded = succeeded_.load(std::memory_order_relaxed);
  a.rejected = rejected_.load(std::memory_order_relaxed);
  a.failed = failed_.load(std::memory_order_relaxed);
  return a;
}

void Server::respond(const Job& job, Response response, Outcome outcome) {
  switch (outcome) {
    case Outcome::kSucceeded:
      succeeded_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.requests.succeeded").add(1);
      break;
    case Outcome::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.requests.rejected").add(1);
      break;
    case Outcome::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("serve.requests.failed").add(1);
      break;
  }
  const double latency_ms = ms_since(job.submitted);
  latency_histogram().observe(latency_ms);
  update_slo_gauges();
  const std::string line = serialize_response(response);
  // Flight capture after serialisation so a serve.respond fire is part of
  // this request's record.
  record_flight(job, response, latency_ms);
  if (job.sink) {
    try {
      job.sink(line);
    } catch (const std::exception& e) {
      DGR_LOG_WARN("serve: response sink threw: %s", e.what());
    }
  }
}

void Server::update_slo_gauges() {
  // Multiple workers may race here; every write publishes a self-consistent
  // recent value derived from the monotonic counters, so last-wins is fine.
  obs::Histogram& h = latency_histogram();
  obs::MetricsRegistry& m = obs::metrics();
  m.gauge("serve.slo.p50_ms").set(histogram_quantile(h, 0.50));
  m.gauge("serve.slo.p99_ms").set(histogram_quantile(h, 0.99));
  const Accounting a = accounting();
  const std::int64_t finished = a.succeeded + a.failed;
  const double availability =
      finished > 0 ? static_cast<double>(a.succeeded) / static_cast<double>(finished) : 1.0;
  m.gauge("serve.slo.availability").set(availability);
  m.gauge("serve.slo.error_budget_burn")
      .set((1.0 - availability) / std::max(1.0 - options_.slo.availability_target, 1e-9));
  const double within = histogram_fraction_le(h, options_.slo.latency_objective_ms);
  m.gauge("serve.slo.latency_within_objective").set(within);
  m.gauge("serve.slo.latency_budget_burn")
      .set((1.0 - within) / std::max(1.0 - options_.slo.latency_target, 1e-9));
}

void Server::record_flight(const Job& job, const Response& response, double latency_ms) {
  FlightRecord rec;
  rec.set_id(response.id.empty() ? "?" : response.id);
  rec.set_op(response.op);
  rec.set_session(job.request.session);
  rec.status = static_cast<int>(response.status.code());
  rec.latency_ms = latency_ms;
  rec.attempts = job.attempts;
  rec.degraded = job.degraded;
  rec.cancelled = job.cancelled;
  rec.queue_depth = job.queue_depth_at_admission;
  rec.set_fault_sites(util::fault::current_fired_sites());
  flight_.record(rec);
  if (options_.flight_path.empty()) return;
  if (response.status.code() == StatusCode::kInternal) {
    flight_.dump(options_.flight_path, "internal");
  } else if (rec.cancelled) {
    flight_.dump(options_.flight_path, "cancelled");
  }
}

void Server::submit(const std::string& line, Sink sink) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("serve.requests.offered").add(1);

  // Submit-phase fires (serve.parse, serve.enqueue, serve.respond on the
  // inline paths) land in this request's flight record.
  util::fault::ScopedFireCollector fault_collector;

  Job job;
  job.sink = std::move(sink);
  job.submitted = std::chrono::steady_clock::now();

  if (stopping_.load(std::memory_order_relaxed)) {
    obs::metrics().counter("serve.admission.shutdown").add(1);
    respond(job,
            error_response(recover_request_id(line), "?",
                           Status(StatusCode::kCancelled, "server is shutting down")),
            Outcome::kRejected);
    return;
  }

  Result<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    respond(job, error_response(recover_request_id(line), "?", parsed.status()),
            Outcome::kFailed);
    return;
  }
  job.request = parsed.take();
  const Request& req = job.request;

  // Control-plane ops answer inline on the submitting thread.
  switch (req.op) {
    case Op::kPing: {
      Response r;
      r.id = req.id;
      r.op = op_name(req.op);
      r.result = Value::object();
      r.result["pong"] = true;
      respond(job, std::move(r), Outcome::kSucceeded);
      return;
    }
    case Op::kStats:
      respond(job, handle_stats(req), Outcome::kSucceeded);
      return;
    case Op::kMetrics:
      respond(job, handle_metrics(req), Outcome::kSucceeded);
      return;
    case Op::kShutdown: {
      stop_requested_.store(true, std::memory_order_relaxed);
      Response r;
      r.id = req.id;
      r.op = op_name(req.op);
      r.result = Value::object();
      r.result["stopping"] = true;
      respond(job, std::move(r), Outcome::kSucceeded);
      return;
    }
    default:
      break;
  }

  // Data-plane ops go through admission control into the bounded queue.
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  const auto at = deadline_ms > 0.0
                      ? job.submitted +
                            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(deadline_ms))
                      : std::chrono::steady_clock::time_point::max();
  job.deadline = util::Deadline(at, &cancel_all_);
  admit(std::move(job));
}

bool Server::admit(Job job) {
  Status rejection;
  const char* counter = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_workers_ || stopping_.load(std::memory_order_relaxed)) {
      rejection = Status(StatusCode::kCancelled, "server is shutting down");
      counter = "serve.admission.shutdown";
    } else if (options_.rate_limit_per_sec > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      const double elapsed = std::chrono::duration<double>(now - rate_last_).count();
      rate_last_ = now;
      rate_tokens_ = std::min(options_.rate_burst,
                              rate_tokens_ + elapsed * options_.rate_limit_per_sec);
      if (rate_tokens_ < 1.0) {
        rejection = Status(StatusCode::kResourceExhausted,
                           "rate limited: token bucket empty");
        counter = "serve.admission.rate_limited";
      } else {
        rate_tokens_ -= 1.0;
      }
    }
    if (rejection.ok() && DGR_FAULT_POINT("serve.enqueue")) {
      rejection = Status(StatusCode::kFaultInjected, "injected admission fault");
      counter = "serve.admission.fault";
    }
    if (rejection.ok() && queue_.size() >= options_.queue_capacity) {
      rejection = Status(StatusCode::kResourceExhausted,
                         "admission queue full (capacity " +
                             std::to_string(options_.queue_capacity) + ")");
      counter = "serve.admission.queue_full";
    }
    if (rejection.ok()) {
      job.queue_depth_at_admission = static_cast<std::uint32_t>(queue_.size());
      queue_.push_back(std::move(job));
      obs::metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
      queue_cv_.notify_one();
      return true;
    }
  }
  obs::metrics().counter(counter).add(1);
  respond(job, error_response(job.request.id, op_name(job.request.op), rejection),
          Outcome::kRejected);
  return false;
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || stop_workers_; });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      obs::metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    }
    obs::metrics().gauge("serve.in_flight")
        .set(static_cast<double>(in_flight_.fetch_add(1, std::memory_order_relaxed) + 1));
    execute(job);
    obs::metrics().gauge("serve.in_flight")
        .set(static_cast<double>(in_flight_.fetch_sub(1, std::memory_order_relaxed) - 1));
    queue_cv_.notify_all();  // wakes drain waiters
  }
}

void Server::exporter_loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.metrics_interval_s));
  auto next = std::chrono::steady_clock::now() + interval;
  while (!exporter_stop_.load(std::memory_order_relaxed)) {
    // Short poll so shutdown never waits out a long interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (std::chrono::steady_clock::now() < next) continue;
    export_artifacts();
    next += interval;
  }
}

void Server::export_artifacts() {
  update_slo_gauges();
  if (!options_.metrics_snapshot_path.empty()) {
    if (!obs::metrics().write_snapshot(options_.metrics_snapshot_path)) {
      DGR_LOG_WARN("serve: failed to write metrics snapshot to %s",
                   options_.metrics_snapshot_path.c_str());
    }
  }
  if (!options_.prometheus_path.empty()) {
    if (!obs::write_prometheus(options_.prometheus_path)) {
      DGR_LOG_WARN("serve: failed to write prometheus text to %s",
                   options_.prometheus_path.c_str());
    }
  }
}

void Server::execute(Job& job) {
  // Request-scoped trace context: every span emitted while this job runs —
  // serve.job itself, the pipeline/kernel spans below it, and pool.job
  // spans on ParallelRuntime workers (the pool captures the context at
  // submit) — carries this request's id/op/session as Chrome trace args.
  // Contexts stamp at span *emission*, so the scope is installed before
  // serve.job and outlives every handler span. Skipped when tracing is off
  // to keep the interner off the untraced fast path.
  std::optional<obs::TraceContextScope> trace_ctx;
  if (obs::tracing_enabled()) {
    trace_ctx.emplace(job.request.id, op_name(job.request.op), job.request.session);
  }
  // Worker-phase fires (serve.dispatch, pipeline.*, core.*, io.parse,
  // serve.respond — all on this thread) land in this request's record.
  util::fault::ScopedFireCollector fault_collector;
  DGR_TRACE_SCOPE("serve.job");
  if (job.deadline.expired()) {
    respond(job,
            error_response(job.request.id, op_name(job.request.op),
                           Status(StatusCode::kStageTimeout,
                                  "deadline expired while queued")),
            Outcome::kFailed);
    return;
  }
  if (DGR_FAULT_POINT("serve.dispatch")) {
    respond(job,
            error_response(job.request.id, op_name(job.request.op),
                           Status(StatusCode::kFaultInjected, "injected dispatch fault")),
            Outcome::kFailed);
    return;
  }

  Response response;
  try {
    // Chaos site modelling a handler crash: the only way to exercise the
    // exception-isolation path (and the flight recorder's INTERNAL dump
    // trigger) on demand.
    if (DGR_FAULT_POINT("serve.handler")) {
      throw std::runtime_error("injected handler crash");
    }
    switch (job.request.op) {
      case Op::kLoad: response = handle_load(job); break;
      case Op::kRoute: response = handle_route(job); break;
      case Op::kEco: response = handle_eco(job); break;
      default:
        response = error_response(job.request.id, op_name(job.request.op),
                                  Status(StatusCode::kInternal,
                                         "control op reached the worker pool"));
        break;
    }
  } catch (const std::exception& e) {
    // Crash isolation: a poisoned request must never take the daemon down.
    response = error_response(
        job.request.id, op_name(job.request.op),
        Status(StatusCode::kInternal, std::string("unhandled exception: ") + e.what()));
  } catch (...) {
    response = error_response(job.request.id, op_name(job.request.op),
                              Status(StatusCode::kInternal, "unhandled non-standard exception"));
  }
  job.cancelled = job.deadline.expired();
  const Outcome outcome =
      response.status.ok() ? Outcome::kSucceeded : Outcome::kFailed;
  respond(job, std::move(response), outcome);
}

Response Server::handle_load(const Job& job) {
  const Request& req = job.request;
  Result<design::Design> parsed = [&]() -> Result<design::Design> {
    if (!req.design_text.empty()) {
      std::istringstream is(req.design_text);
      return design::try_read_design(is, options_.design_limits);
    }
    return design::try_read_design_file(req.design_path, options_.design_limits);
  }();
  if (!parsed.ok()) {
    return error_response(req.id, op_name(req.op), parsed.status());
  }
  design::Design design = parsed.take();
  const std::uint64_t seed = req.has_seed ? req.seed : 1;

  Response r;
  r.id = req.id;
  r.op = op_name(req.op);
  r.result = Value::object();
  r.result["session"] = req.session;
  r.result["design"] = design.name();
  r.result["nets"] = design.net_count();
  r.result["routable"] = design.routable_nets().size();
  Value grid = Value::array();
  grid.push_back(design.grid().width());
  grid.push_back(design.grid().height());
  r.result["grid"] = grid;

  sessions_.put(req.session, std::move(design), seed);
  return r;
}

Response Server::handle_route(Job& job) {
  const Request& req = job.request;
  std::shared_ptr<Session> session = sessions_.find(req.session);
  if (session == nullptr) {
    return error_response(req.id, op_name(req.op),
                          Status(StatusCode::kNotFound,
                                 "unknown session '" + req.session + "'"));
  }
  const std::string router = req.router.empty() ? options_.default_router : req.router;
  if (!pipeline::has_router(router)) {
    return error_response(req.id, op_name(req.op),
                          Status(StatusCode::kInvalidArgument,
                                 "unknown router '" + router + "'"));
  }
  std::string fallback =
      req.fallback.empty() ? options_.fallback_router : req.fallback;
  if (fallback == "none") fallback.clear();

  // Partition-parallel routing: "partitions" >= 2 (or the server default)
  // swaps in the partitioned engine with the requested router as its
  // region router. The parser already bounds req.partitions to [1, 64].
  const int partitions =
      req.has_partitions ? req.partitions : options_.default_partitions;
  std::string effective_router = router;
  if (partitions >= 2 && router != "partitioned") effective_router = "partitioned";

  std::lock_guard<std::mutex> session_lock(session->mu);
  pipeline::RoutingContext& ctx = session->context();
  const std::uint64_t base_seed = req.has_seed ? req.seed : session->seed;

  pipeline::PipelineResult result;
  int attempts_run = 0;
  pipeline::RouterOptions ropts;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    attempts_run = attempt + 1;
    job.attempts = attempts_run;  // visible to the flight record on any exit
    const bool final_attempt = attempt + 1 >= options_.max_attempts;

    // Per-attempt engine options: request overrides over the server base,
    // reseeded per attempt so a diverging run explores fresh Gumbel noise.
    ropts = options_.router_options;
    if (options_.default_iterations > 0) ropts.dgr.iterations = options_.default_iterations;
    if (req.iterations > 0) ropts.dgr.iterations = req.iterations;
    ropts.dgr.record_telemetry = req.telemetry;
    ropts.dgr.seed = base_seed + static_cast<std::uint64_t>(attempt) * kReseedStride;
    if (partitions >= 2) {
      ropts.partition.partitions = partitions;
      if (router != "partitioned") ropts.partition.region_router = router;
    }

    pipeline::PipelineOptions popts;
    popts.fallback_router = fallback;
    // Retry policy: non-final attempts surface divergence for the reseeded
    // retry; the final attempt degrades exactly as the pipeline does.
    popts.degrade_on_divergence = final_attempt;
    if (job.deadline.expired()) {
      return error_response(req.id, op_name(req.op),
                            Status(StatusCode::kStageTimeout,
                                   "deadline expired before route attempt " +
                                       std::to_string(attempts_run)));
    }

    ctx.reset_demand();
    ctx.clear_warm_start();
    ctx.set_deadline(job.deadline);
    pipeline::Pipeline pipe(ctx, popts);
    result = pipe.run(effective_router, ropts);
    ctx.set_deadline({});  // the session context outlives this job

    if (result.stats.status.code() == StatusCode::kNumericDivergence && !final_attempt) {
      obs::metrics().counter("serve.requests.retries").add(1);
      DGR_LOG_INFO("serve: request %s diverged on attempt %d, reseeding",
                   req.id.c_str(), attempts_run);
      continue;
    }
    break;
  }

  job.degraded = result.stats.degraded;
  if (!result.stats.status.ok()) {
    return error_response(req.id, op_name(req.op), result.stats.status);
  }
  if (result.stats.degraded) obs::metrics().counter("serve.requests.degraded").add(1);

  // Refresh the session's memory accounting with what this route retained.
  if (ctx.has_forest(ropts.forest)) {
    session->forest_bytes.store(ctx.forest(ropts.forest).memory_bytes(),
                                std::memory_order_relaxed);
  }
  session->solver_bytes.store(result.stats.solver_bytes, std::memory_order_relaxed);

  Response r;
  r.id = req.id;
  r.op = op_name(req.op);
  r.result = Value::object();
  r.result["router"] = result.stats.router;
  r.result["seed"] = ropts.dgr.seed;
  r.result["partitions"] = partitions >= 2 ? partitions : 1;
  r.result["degraded"] = result.stats.degraded;
  r.result["attempts"] = attempts_run;
  r.result["metrics"] = metrics_to_json(result.metrics);
  r.result["weighted_overflow"] = result.weighted_overflow;
  r.result["nets_with_overflow"] = result.nets_with_overflow;
  Value stats = Value::object();
  stats["rollbacks"] = result.stats.rollbacks;
  stats["repaired_nets"] = result.stats.repaired_nets;
  if (!result.stats.attempts.empty()) {
    Value attempts = Value::array();
    for (const pipeline::RouteAttempt& a : result.stats.attempts) {
      attempts.push_back(attempt_to_json(a));
    }
    stats["route_attempts"] = attempts;
  }
  r.result["stats"] = stats;
  if (req.telemetry) {
    Value telemetry = Value::object();
    telemetry["samples"] = result.stats.convergence.size();
    telemetry["rollback_events"] = result.stats.convergence.rollbacks.size();
    if (!result.stats.convergence.empty()) {
      telemetry["final_loss"] = result.stats.convergence.samples().back().loss;
    }
    r.result["telemetry"] = telemetry;
  }

  if (req.keep) {
    session->base = std::move(result.solution);
    session->solution_bytes.store(estimate_solution_bytes(session->base),
                                  std::memory_order_relaxed);
  }
  sessions_.enforce_budget();
  return r;
}

Response Server::handle_eco(const Job& job) {
  const Request& req = job.request;
  std::shared_ptr<Session> session = sessions_.find(req.session);
  if (session == nullptr) {
    return error_response(req.id, op_name(req.op),
                          Status(StatusCode::kNotFound,
                                 "unknown session '" + req.session + "'"));
  }
  std::lock_guard<std::mutex> session_lock(session->mu);

  if (session->eco == nullptr) {
    eco::EcoOptions eopts;
    eopts.context.seed = session->seed;
    eopts.router = options_.fallback_router.empty() ? "cugr2-lite"
                                                    : options_.fallback_router;
    eopts.router_options = options_.router_options;
    auto engine = std::make_unique<eco::EcoEngine>(
        design::make_design_state(*session->design, session->seed), eopts);
    // Baseline: adopt the session's kept routing state when one exists (a
    // delta reroute then reuses it instead of routing from scratch).
    bool adopted = false;
    if (session->base.design != nullptr) {
      adopted = engine->adopt(session->base).ok();
    }
    if (!adopted) {
      Result<eco::EcoResult> base = engine->route_full();
      if (!base.ok()) {
        return error_response(req.id, op_name(req.op), base.status());
      }
    }
    session->eco = std::move(engine);
  }

  design::Mutation mutation;
  if (req.generate_mutation) {
    util::Rng rng(req.mutation_seed);
    mutation = design::generate_mutation(session->eco->state(), {}, rng);
  } else {
    mutation = req.mutation;
  }

  Result<eco::EcoResult> applied = session->eco->apply(mutation);
  if (!applied.ok()) {
    return error_response(req.id, op_name(req.op), applied.status());
  }
  const eco::EcoResult eco = applied.take();
  session->solution_bytes.store(estimate_solution_bytes(session->eco->solution()),
                                std::memory_order_relaxed);
  sessions_.enforce_budget();

  Response r;
  r.id = req.id;
  r.op = op_name(req.op);
  r.result = Value::object();
  r.result["mutation"] = mutation.label;
  r.result["applied"] = session->eco->applied();
  r.result["full_reroute"] = eco.stats.full_reroute;
  r.result["dirty_fraction"] = eco.stats.dirty_fraction;
  r.result["closure_nets"] = eco.stats.closure_dirty;
  r.result["metrics"] = metrics_to_json(eco.metrics);
  r.result["weighted_overflow"] = eco.weighted_overflow;
  return r;
}

Response Server::handle_stats(const Request& req) {
  Response r;
  r.id = req.id;
  r.op = op_name(req.op);
  r.result = Value::object();
  Value acct = Value::object();
  const Accounting a = accounting();
  // This request is already counted offered but responds after this
  // snapshot, so report it as succeeded up front to keep the published
  // numbers self-consistent (offered = succeeded + rejected + failed).
  acct["offered"] = a.offered;
  acct["succeeded"] = a.succeeded + 1;
  acct["rejected"] = a.rejected;
  acct["failed"] = a.failed;
  acct["in_flight"] = in_flight_.load(std::memory_order_relaxed);
  acct["queue_depth"] = queue_depth();
  r.result["accounting"] = acct;
  Value names = Value::array();
  for (const std::string& name : sessions_.names()) names.push_back(name);
  r.result["sessions"] = names;
  r.result["cache_bytes"] = sessions_.memory_bytes();
  // Trace-loss visibility: operators see dropped spans and ring pressure
  // here instead of silently missing events in the exported timeline.
  Value trace = Value::object();
  trace["enabled"] = obs::tracing_enabled();
  trace["buffered_events"] = obs::trace_event_count();
  trace["dropped_events"] = obs::trace_dropped();
  trace["ring_capacity"] = obs::trace_ring_capacity();
  r.result["trace"] = trace;
  Value flight = Value::object();
  flight["capacity"] = flight_.capacity();
  flight["occupancy"] = flight_.size();
  flight["recorded"] = flight_.total();
  flight["dumps"] = flight_.dumps();
  r.result["flight"] = flight;
  // Active partition configuration: what a "route" without a "partitions"
  // field gets, and the tiling the partitioned engine would use.
  Value part = Value::object();
  part["default_partitions"] =
      options_.default_partitions >= 2 ? options_.default_partitions : 1;
  part["halo"] = options_.router_options.partition.halo;
  part["seeding"] =
      options_.router_options.partition.seeding == partition::Seeding::kUniform
          ? std::string("uniform")
          : std::string("congestion");
  part["region_router"] = options_.router_options.partition.region_router;
  r.result["partition"] = part;
  r.result["metrics"] = obs::metrics().snapshot();
  return r;
}

Response Server::handle_metrics(const Request& req) {
  update_slo_gauges();  // a scrape sees fresh SLO gauges even when idle
  Response r;
  r.id = req.id;
  r.op = op_name(req.op);
  r.result = Value::object();
  r.result["format"] = req.format;
  if (req.format == "prometheus") {
    r.result["text"] = obs::prometheus_text();
  } else {
    r.result["snapshot"] = obs::metrics().snapshot();
  }
  return r;
}

std::string Server::call(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  submit(line, [&promise](const std::string& response) { promise.set_value(response); });
  return future.get();
}

void Server::shutdown(bool drain) {
  if (stopping_.exchange(true)) {
    // A second shutdown (e.g. destructor after an explicit call) only needs
    // to make sure the threads are gone.
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    if (exporter_.joinable()) exporter_.join();
    return;
  }
  stop_requested_.store(true, std::memory_order_relaxed);

  std::deque<Job> cancelled;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!drain) cancelled.swap(queue_);
    stop_workers_ = true;
    obs::metrics().gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  }
  // Expires every in-flight job's deadline; the queue is answered below.
  if (!drain) cancel_all_.store(true, std::memory_order_relaxed);
  for (Job& job : cancelled) {
    respond(job,
            error_response(job.request.id, op_name(job.request.op),
                           Status(StatusCode::kCancelled,
                                  "cancelled by server shutdown")),
            Outcome::kFailed);
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  exporter_stop_.store(true, std::memory_order_relaxed);
  if (exporter_.joinable()) exporter_.join();
  flush_artifacts();
  DGR_LOG_INFO("serve: shutdown complete (%s)", drain ? "drained" : "cancelled");
}

void Server::flush_artifacts() {
  export_artifacts();  // final snapshot / Prometheus state
  if (!options_.trace_path.empty()) {
    obs::set_tracing(false);
    if (!obs::write_chrome_trace(options_.trace_path)) {
      DGR_LOG_WARN("serve: failed to write trace to %s", options_.trace_path.c_str());
    }
  }
  if (!options_.flight_path.empty()) {
    if (!flight_.dump(options_.flight_path, "shutdown")) {
      DGR_LOG_WARN("serve: failed to write flight record to %s",
                   options_.flight_path.c_str());
    }
  }
}

}  // namespace dgr::serve
