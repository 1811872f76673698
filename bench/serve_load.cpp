// serve_load: closed-loop load generator for the dgr::serve daemon.
//
// Drives an in-process Server (no transport overhead — this measures the
// service core: admission, queueing, session cache, pipeline workers) with
// bursts of mixed route requests at several offered loads and worker
// counts, and reports p50/p99 latency + throughput per cell. Emits
// BENCH_serve.json via the dgr-bench-v1 emitter (validated by
// bench.schema_check).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <vector>

#include "bench_common.hpp"

namespace {

using dgr::serve::Server;
using dgr::serve::ServerOptions;

std::string bench_design_text(double scale, int index) {
  dgr::design::IspdLikeParams p;
  p.name = "serve_bench_" + std::to_string(index);
  p.grid_w = p.grid_h = static_cast<int>(20 * scale);
  p.num_nets = static_cast<int>(220 * scale * scale);
  p.layers = 4;
  p.tracks_per_layer = 4;
  const dgr::design::Design design =
      dgr::design::generate_ispd_like(p, 100 + static_cast<std::uint64_t>(index));
  std::ostringstream os;
  dgr::design::write_design(os, design);
  return os.str();
}

std::string json_escape_into_request(const std::string& s) {
  return dgr::obs::json::escape(s);
}

struct CellResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput = 0.0;  ///< completed requests / second
  std::int64_t succeeded = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
};

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(idx + 0.5)];
}

/// One load cell: `offered` route requests spread over `sessions` sessions
/// on a server with `workers` workers, submitted in bursts of
/// `burst` with no think time (closed-loop: wait for each burst).
CellResult run_cell(int workers, int offered, int burst, double scale) {
  dgr::obs::metrics().reset();
  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = static_cast<std::size_t>(std::max(burst, 4));
  options.default_iterations = 25;
  options.cache.max_sessions = 8;
  Server server(options);
  server.start();

  const int kSessions = 4;
  const char* routers[] = {"dgr", "cugr2-lite", "sproute-lite"};
  for (int s = 0; s < kSessions; ++s) {
    const std::string design = bench_design_text(scale, s);
    const std::string line = "{\"id\":\"load" + std::to_string(s) +
                             "\",\"op\":\"load\",\"session\":\"s" + std::to_string(s) +
                             "\",\"design\":\"" + json_escape_into_request(design) +
                             "\"}";
    server.call(line);
  }
  // The session loads above are requests too; snapshot after them so the
  // cell reports only its route requests.
  const Server::Accounting before = server.accounting();

  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> latencies;
  int outstanding = 0;

  dgr::util::Timer wall;
  for (int i = 0; i < offered; ++i) {
    const std::string line =
        "{\"id\":\"r" + std::to_string(i) + "\",\"op\":\"route\",\"session\":\"s" +
        std::to_string(i % kSessions) + "\",\"router\":\"" +
        routers[i % 3] + "\",\"seed\":" + std::to_string(1 + i) + "}";
    {
      std::unique_lock<std::mutex> lock(mu);
      ++outstanding;
    }
    dgr::util::Timer latency;
    server.submit(line, [&mu, &cv, &latencies, &outstanding, latency](
                            const std::string&) {
      std::lock_guard<std::mutex> lock(mu);
      latencies.push_back(latency.seconds() * 1000.0);
      --outstanding;
      cv.notify_all();
    });
    if ((i + 1) % burst == 0 || i + 1 == offered) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&outstanding] { return outstanding == 0; });
    }
  }
  const double wall_seconds = wall.seconds();

  const Server::Accounting after = server.accounting();
  server.shutdown(true);

  CellResult cell;
  cell.p50_ms = percentile(latencies, 0.50);
  cell.p99_ms = percentile(latencies, 0.99);
  cell.throughput = wall_seconds > 0.0 ? static_cast<double>(offered) / wall_seconds : 0.0;
  cell.succeeded = after.succeeded - before.succeeded;
  cell.rejected = after.rejected - before.rejected;
  cell.failed = after.failed - before.failed;
  return cell;
}

}  // namespace

int main() {
  dgr::bench::begin_bench("serve daemon load",
                          "routing-as-a-service latency/throughput (ROADMAP serve item)");
  const double scale = dgr::bench::bench_scale();

  dgr::obs::BenchEmitter emitter = dgr::bench::make_emitter(
      "serve", "dgr::serve daemon p50/p99 latency and throughput");
  emitter.set_config("sessions", 4);
  emitter.set_config("routers", "dgr,cugr2-lite,sproute-lite");

  const int worker_counts[] = {1, 2, 4};
  const int loads[] = {8, 24};
  std::printf("%-20s %10s %10s %12s %18s\n", "cell", "p50_ms", "p99_ms", "req_per_s",
              "ok/rej/fail");

  double best_throughput = 0.0;
  bool balanced = true;
  for (const int workers : worker_counts) {
    for (const int offered : loads) {
      const int burst = std::max(4, offered / 3);
      const CellResult cell = run_cell(workers, offered, burst, scale);
      best_throughput = std::max(best_throughput, cell.throughput);

      char name[64];
      std::snprintf(name, sizeof(name), "w%d_load%d", workers, offered);
      std::printf("%-20s %10.2f %10.2f %12.2f %8lld/%lld/%lld\n", name, cell.p50_ms,
                  cell.p99_ms, cell.throughput,
                  static_cast<long long>(cell.succeeded),
                  static_cast<long long>(cell.rejected),
                  static_cast<long long>(cell.failed));
      // The daemon's invariant, per cell: every offered route request ends
      // in exactly one of succeeded, rejected or failed.
      if (cell.succeeded + cell.rejected + cell.failed != offered) {
        std::fprintf(stderr, "%s: offered %d != succeeded + rejected + failed\n", name,
                     offered);
        balanced = false;
      }

      emitter.add_row(name)
          .metric("workers", workers)
          .metric("offered", offered)
          .metric("burst", burst)
          .metric("p50_latency_ms", cell.p50_ms)
          .metric("p99_latency_ms", cell.p99_ms)
          .metric("throughput_rps", cell.throughput)
          .metric("succeeded", static_cast<double>(cell.succeeded))
          .metric("rejected", static_cast<double>(cell.rejected))
          .metric("failed", static_cast<double>(cell.failed))
          .note("mix", "route over 4 sessions, 3 routers round-robin");
    }
  }

  emitter.summary("max_throughput_rps", best_throughput);
  if (!emitter.write()) {
    std::fprintf(stderr, "failed to write %s\n", emitter.default_path().c_str());
    return 1;
  }
  std::printf("\nmax throughput: %.2f req/s\n", best_throughput);
  return balanced ? 0 : 1;
}
