// serve_open_loop: an in-process serve::Server (2 workers, queue 64, 25 DGR
// iterations) holding 16 sessions of 32x32, 8-layer designs with 560 nets
// each, laid out without hot spots. The designs are uncongested, so every
// router answers in a steady 7-18 ms: with hot spots, the odd seeded design
// ends congested, one router takes 100 ms on it, the queue backs up behind
// it, and the run's tail latency swings 3x with the seed.
// One sender thread sends `route` requests round-robin over sessions x
// {dgr, cugr2-lite, sproute-lite}, every one with the same seed, so each
// (session, router) pair always gets the same answer.
//
//   phase A  open loop at a fixed rate: requests go out on schedule whether
//            or not earlier ones were answered, and each latency is timed
//            from the request's due time, so a stall also charges the wait
//            it imposes on later requests.
//            Correct answers per second over the phase (goodput at the
//            offered rate) drop only when the server falls behind.
//   phase B  (traced runs) saturation: 2 x workers requests outstanding;
//            completions per second is the service capacity. Its rate swings
//            with which cores the two busy workers share, so it is a
//            per-layer number, not the end-to-end throughput.
//
// Set-up (start, one `load` request per session, one warm-up route per pair
// so lazy per-session state is built) is repeated and its median reported.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "dgr/dgr.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace dgr::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSessions = 16;
constexpr const char* kRouters[] = {"dgr", "cugr2-lite", "sproute-lite"};
constexpr int kRouterCount = 3;
constexpr int kPairs = kSessions * kRouterCount;
constexpr int kSetups = 3;
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kTailWindows = 3;  ///< phase A slices the tail is the median over
constexpr double kLateMs = 1.0;  ///< a send later than this past its due time is late

/// What a route response reports about its solution.
struct Answer {
  double wirelength = -1.0;
  double bends = -1.0;
  double overflow_edges = -1.0;
  double total_overflow = -1.0;
  double nets_with_overflow = -1.0;
  bool operator==(const Answer&) const = default;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string route_line(const std::string& id, int pair) {
  return "{\"id\":\"" + id + "\",\"op\":\"route\",\"session\":\"s" +
         std::to_string(pair % kSessions) + "\",\"router\":\"" + kRouters[pair / kSessions] +
         "\",\"seed\":1}";
}

/// Checks one response line: it parses, carries `id`, succeeded, and (when
/// `expected` is set) reports exactly the expected solution.
bool check_response(const std::string& line, const std::string& id, const Answer* expected,
                    Answer* got, RunResult& rr) {
  obs::json::Value doc;
  if (!obs::json::Value::parse(line, &doc)) {
    rr.check(false, id + ": response is not JSON");
    return false;
  }
  const obs::json::Value* rid = doc.find("id");
  const obs::json::Value* ok = doc.find("ok");
  if (rid == nullptr || !rid->is_string() || rid->as_string() != id) {
    rr.check(false, id + ": response does not carry its request id");
    return false;
  }
  if (ok == nullptr || !ok->as_bool()) {
    rr.check(false, id + ": request failed: " + line.substr(0, 200));
    return false;
  }
  const obs::json::Value* result = doc.find("result");
  const obs::json::Value* metrics = result != nullptr ? result->find("metrics") : nullptr;
  auto number = [](const obs::json::Value* v, const char* key) {
    const obs::json::Value* x = v != nullptr ? v->find(key) : nullptr;
    return x != nullptr && x->is_number() ? x->as_number() : -1.0;
  };
  Answer a;
  a.wirelength = number(metrics, "wirelength");
  a.bends = number(metrics, "bends");
  a.overflow_edges = number(metrics, "overflow_edges");
  a.total_overflow = number(metrics, "total_overflow");
  a.nets_with_overflow = number(result, "nets_with_overflow");
  if (got != nullptr) *got = a;
  if (a.wirelength < 0.0 || a.nets_with_overflow < 0.0) {
    rr.check(false, id + ": response carries no solution metrics");
    return false;
  }
  if (expected != nullptr && !(a == *expected)) {
    rr.check(false, id + ": answer differs from the warm-up answer for the same request");
    return false;
  }
  return true;
}

/// One request of a measured phase. The sink writes `response`/`done` from
/// a worker thread; the sender reads them only after `answered` covers it.
struct Slot {
  int pair = 0;
  Clock::time_point due, sent, submitted, done;
  std::string response;
};

class Phase {
 public:
  Phase(serve::Server& server, std::string prefix) : server_(server), prefix_(std::move(prefix)) {}

  /// Open loop at `rps` for `seconds`.
  void open_loop(double rps, double seconds) {
    const auto n = static_cast<std::size_t>(rps * seconds);
    slots_.resize(n);
    epoch_ = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = epoch_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(static_cast<double>(i) / rps));
      std::this_thread::sleep_until(due);
      send(i, due);
    }
    wait_all();
  }

  /// Closed loop with `outstanding` requests in flight for `seconds`;
  /// returns completions per second inside the window.
  double saturate(int outstanding, double seconds) {
    slots_.reserve(100000);
    epoch_ = Clock::now();
    const auto end = epoch_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    while (Clock::now() < end && slots_.size() < slots_.capacity()) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return static_cast<int>(slots_.size() - answered_) < outstanding; });
      }
      slots_.emplace_back();
      send(slots_.size() - 1, Clock::now());
    }
    wait_all();
    std::size_t in_window = 0;
    for (const Slot& s : slots_) in_window += s.done <= end ? 1 : 0;
    return static_cast<double>(in_window) / seconds;
  }

  std::vector<Slot>& slots() { return slots_; }
  std::string id(std::size_t i) const { return prefix_ + std::to_string(i); }
  std::size_t queue_depth_max() const { return queue_depth_max_; }

 private:
  void send(std::size_t i, Clock::time_point due) {
    Slot& s = slots_[i];
    s.pair = static_cast<int>(i % kPairs);
    s.due = due;
    s.sent = Clock::now();
    op_started();
    server_.submit(route_line(id(i), s.pair), [this, i](const std::string& line) {
      const Clock::time_point now = Clock::now();
      op_finished(true);  // answered; a wrong answer counts as failed in finish()
      std::lock_guard<std::mutex> lock(mu_);
      slots_[i].response = line;
      slots_[i].done = now;
      ++answered_;
      cv_.notify_all();
    });
    s.submitted = Clock::now();
    queue_depth_max_ = std::max(queue_depth_max_, server_.queue_depth());
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return answered_ == slots_.size(); });
  }

  serve::Server& server_;
  std::string prefix_;
  Clock::time_point epoch_;
  std::vector<Slot> slots_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t answered_ = 0;
  std::size_t queue_depth_max_ = 0;
};

struct PhaseReport {
  std::vector<double> latency_ms;
  double goodput = 0.0;  ///< correct answers per second, first due time to last answer
  std::int64_t rejected = 0;
  std::int64_t late = 0;
  double latency_by_router[kRouterCount] = {};
};

/// Verifies every answer of a finished phase and the server's accounting
/// over it (offered = succeeded + rejected + failed, route ops only).
PhaseReport finish(Phase& phase, const serve::Server::Accounting& before,
                   const serve::Server::Accounting& after, const std::vector<Answer>& expected,
                   RunResult& rr, SpanLog* log) {
  PhaseReport report;
  std::size_t correct = 0;
  Clock::time_point last = Clock::time_point::min();
  for (std::size_t i = 0; i < phase.slots().size(); ++i) {
    const Slot& s = phase.slots()[i];
    if (check_response(s.response, phase.id(i), &expected[static_cast<std::size_t>(s.pair)],
                       nullptr, rr)) {
      ++correct;
    } else {
      op_failed();
    }
    last = std::max(last, s.done);
    const double latency = ms_between(s.due, s.done);
    report.latency_ms.push_back(latency);
    report.latency_by_router[s.pair / kSessions] += latency;
    report.late += ms_between(s.due, s.sent) > kLateMs ? 1 : 0;
    if (log != nullptr) {
      const int root =
          log->add("serve.request", phase.id(i), log->at_us(s.due), log->at_us(s.done), -1, false);
      log->add("serve.submit", phase.id(i), log->at_us(s.sent), log->at_us(s.submitted), root,
               false);
    }
  }
  if (!phase.slots().empty()) {
    report.goodput = static_cast<double>(correct) /
                     (ms_between(phase.slots().front().due, last) / 1e3);
  }
  const std::int64_t offered = after.offered - before.offered;
  report.rejected = after.rejected - before.rejected;
  rr.check(offered == static_cast<std::int64_t>(phase.slots().size()),
           "server counted " + std::to_string(offered) + " offered requests for " +
               std::to_string(phase.slots().size()) + " sent");
  rr.check(offered == (after.succeeded - before.succeeded) + report.rejected +
                          (after.failed - before.failed),
           "offered != succeeded + rejected + failed over a phase");
  return report;
}

}  // namespace

RunResult run_serve_open_loop(const RunConfig& config) {
  RunResult rr;
  std::vector<std::string> texts;
  for (int s = 0; s < kSessions; ++s) {
    design::IspdLikeParams p;
    p.name = "serve_s";
    p.name += std::to_string(s);
    p.grid_w = p.grid_h = 32;
    p.num_nets = 560;
    p.layers = 8;
    p.tracks_per_layer = 4;
    p.hotspot_affinity = 0.0;
    texts.push_back(design_text(design::generate_ispd_like(p, config.seed * 100 + s)));
  }

  serve::ServerOptions options;
  options.workers = config.serve_workers;
  options.queue_capacity = 64;
  options.default_iterations = 25;
  options.cache.max_sessions = kSessions;

  // Set-up, repeated; the last server is the one measured. The first is a
  // warm-up that is not timed (right after process start it can run twice
  // as slow as the rest); it also records the answer every later request
  // for the same (session, router) must reproduce.
  std::vector<double> setup_s, parse_ms;
  std::vector<Answer> answers(kPairs);
  std::int64_t hpwl[kSessions] = {};
  std::int64_t nets[kSessions] = {};
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep <= (config.smoke ? 0 : kSetups); ++rep) {
    if (server != nullptr) server->shutdown(true);
    // The suite parses the texts too, for the HPWL the wirelength is
    // compared against; the server is handed only the text.
    util::Timer parse;
    for (int s = 0; s < kSessions; ++s) {
      const design::Design d = parse_design(texts[static_cast<std::size_t>(s)], rr);
      hpwl[s] = d.total_hpwl();
      nets[s] = static_cast<std::int64_t>(d.routable_nets().size());
    }
    const double parse_time_ms = parse.millis();

    util::Timer timer;
    server = std::make_unique<serve::Server>(options);
    server->start();
    for (int s = 0; s < kSessions; ++s) {
      const std::string id = "load" + std::to_string(s);
      const std::string line = server->call(
          "{\"id\":\"" + id + "\",\"op\":\"load\",\"session\":\"s" + std::to_string(s) +
          "\",\"design\":\"" + obs::json::escape(texts[static_cast<std::size_t>(s)]) + "\"}");
      obs::json::Value doc;
      rr.check(obs::json::Value::parse(line, &doc) && doc.find("ok") != nullptr &&
                   doc.find("ok")->as_bool(),
               id + ": load failed: " + line.substr(0, 200));
    }
    for (int pair = 0; pair < kPairs; ++pair) {
      const std::string id = "warm" + std::to_string(rep) + "_" + std::to_string(pair);
      Answer a;
      check_response(server->call(route_line(id, pair)), id,
                     rep == 0 ? nullptr : &answers[static_cast<std::size_t>(pair)], &a, rr);
      if (rep == 0) answers[static_cast<std::size_t>(pair)] = a;
    }
    if (rep > 0 || config.smoke) {
      setup_s.push_back(timer.seconds());
      parse_ms.push_back(parse_time_ms);
    }
  }
  if (!rr.correct()) {
    server->shutdown(true);
    return rr;
  }
  reset_peak_rss();

  const bool traced = config.spans != nullptr;
  const double open_s = config.smoke ? 3.0 : 0.8 * config.seconds;
  const double saturate_s = config.smoke ? 1.0 : 0.15 * config.seconds;
  std::vector<PhaseReport> open;
  std::size_t queue_depth_max = 0;
  std::int64_t sent = 0, rejected = 0;
  for (int half = 0; half < (traced ? 2 : 1); ++half) {
    Phase phase(*server, "a" + std::to_string(half) + "_");
    const serve::Server::Accounting before = server->accounting();
    phase.open_loop(config.serve_rps, traced ? open_s / 2.0 : open_s);
    open.push_back(finish(phase, before, server->accounting(), answers, rr,
                          half == 1 ? config.spans : nullptr));
    queue_depth_max = std::max(queue_depth_max, phase.queue_depth_max());
    sent += static_cast<std::int64_t>(phase.slots().size());
    rejected += open.back().rejected;
  }
  double saturated_rps = 0.0;
  if (traced) {
    Phase phase(*server, "b_");
    const serve::Server::Accounting before = server->accounting();
    saturated_rps = phase.saturate(2 * config.serve_workers, saturate_s);
    rejected += finish(phase, before, server->accounting(), answers, rr, nullptr).rejected;
    sent += static_cast<std::int64_t>(phase.slots().size());
  }
  server->shutdown(true);

  const PhaseReport& a = open.front();
  double wl = 0.0, overflowed = 0.0, total_hpwl = 0.0, total_nets = 0.0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const Answer& ans = answers[static_cast<std::size_t>(pair)];
    wl += ans.wirelength;
    overflowed += ans.nets_with_overflow;
    total_hpwl += static_cast<double>(hpwl[pair % kSessions]);
    total_nets += static_cast<double>(nets[pair % kSessions]);
  }
  rr.op_ms = a.latency_ms;
  rr.e2e["setup_s"] = median(setup_s);
  rr.e2e["op_p50_ms"] = median(a.latency_ms);
  rr.e2e["op_tail_ms"] = windowed_percentile(a.latency_ms, kTailWindows, kTailPercentile);
  rr.e2e["ops_per_s"] = a.goodput;
  rr.e2e["wl_ratio"] = wl / total_hpwl;
  rr.e2e["clean_net_share"] = 1.0 - overflowed / total_nets;
  if (!traced) return rr;

  const PhaseReport& t = open.back();
  double latency_sum = 0.0;
  for (const double l : t.latency_ms) latency_sum += l;
  rr.layers["design.parse_ms"] = median(parse_ms) / kSessions;
  set_self_shares(rr, *config.spans, "serve.request", {"serve.submit"});
  set_trace_checks(rr, *config.spans, median(a.latency_ms), median(t.latency_ms));
  for (int r = 0; r < kRouterCount; ++r) {
    rr.layers[std::string("serve.latency_pct.") + kRouters[r]] =
        100.0 * t.latency_by_router[r] / latency_sum;
  }
  rr.layers["serve.reject_ratio"] = static_cast<double>(rejected) / static_cast<double>(sent);
  rr.layers["serve.queue_depth_max"] = static_cast<double>(queue_depth_max);
  rr.layers["serve.saturated_rps"] = saturated_rps;
  double late = 0.0, open_sent = 0.0;
  for (const PhaseReport& p : open) {
    late += static_cast<double>(p.late);
    open_sent += static_cast<double>(p.latency_ms.size());
  }
  rr.layers["serve.late_share"] = late / open_sent;
  return rr;
}

}  // namespace dgr::bench
