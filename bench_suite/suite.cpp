// bench_suite: the DGR benchmark. One command runs a workload (or all four),
// prints every metric as a `workload metric value unit` line, checks that
// the router's outputs are correct, and ends with one JSON result line.
//
//   bench_suite --workload congested_flow --seed 1 --seconds 20 --trace 0
//   bench_suite --workload all --seed 1
//   bench_suite --selftest
//
// Hang guard: every workload runs in a child process (fork + exec of this
// binary with --child) under a deadline of twice its expected duration. A
// child that misses it is killed, its unanswered ops count as failed, every
// metric is still printed, and the suite exits non-zero. README.md in this
// directory describes the workloads and metrics.

#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "dgr/dgr.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace dgr::bench {

OpCounters& ops() {
  static OpCounters counters;
  return counters;
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) failed_checks.push_back(what);
}

std::string design_text(const design::Design& design) {
  std::ostringstream os;
  design::write_design(os, design);
  return os.str();
}

design::Design parse_design(const std::string& text, RunResult& result) {
  std::istringstream is(text);
  Result<design::Design> parsed = design::try_read_design(is);
  result.check(parsed.ok(), "design text does not parse: " + parsed.status().to_string());
  return parsed.ok() ? parsed.take() : design::Design{};
}

double peak_rss_mb() { return static_cast<double>(util::peak_rss_bytes()) / 1e6; }

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

void set_self_shares(RunResult& result, const SpanLog& log, const std::string& root,
                     const std::vector<std::string>& names) {
  const double total = log.total_us(root);
  const std::map<std::string, double> self = log.self_us_by_name(root);
  for (const std::string& name : names) {
    const auto it = self.find(name);
    result.layers[name + "_pct"] =
        it != self.end() && total > 0.0 ? 100.0 * it->second / total : 0.0;
  }
}

void set_trace_checks(RunResult& result, const SpanLog& log, double untraced_op,
                      double traced_op) {
  result.layers["trace.overhead_pct"] = 100.0 * (traced_op / untraced_op - 1.0);
  const double gap = log.worst_child_gap();
  result.layers["trace.child_gap_pct"] = 100.0 * gap;
  result.check(gap <= 0.05, "traced children miss their parent span by " +
                                std::to_string(100.0 * gap) + "% (limit 5%)");
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric list BENCHMARK.json declares; bench.suite_smoke checks the two
// agree. End-to-end metrics are measured with the traced pass off.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},          {"ops_per_s", "1/s"},
    {"wl_ratio", "ratio"}, {"clean_net_share", "ratio"}, {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced pass. `*_pct` shares are self time over
// the traced op's wall time; a layer a workload does not run reads 0.
constexpr MetricDef kPerLayer[] = {
    {"design.parse_ms", "ms"},
    {"op.samples", "count"},
    {"pipeline.context_pct", "%"},
    {"dag.forest_pct", "%"},
    {"core.init_pct", "%"},
    {"core.train_pct", "%"},
    {"core.extract_pct", "%"},
    {"pipeline.commit_pct", "%"},
    {"partition.route_pct", "%"},
    {"partition.regions_pct", "%"},
    {"partition.reconcile_pct", "%"},
    {"post.maze_refine_pct", "%"},
    {"pipeline.validate_pct", "%"},
    {"post.layer_assign_pct", "%"},
    {"eval.metrics_pct", "%"},
    {"eco.apply_pct", "%"},
    {"eco.closure_pct", "%"},
    {"eco.route_pct", "%"},
    {"eco.merge_pct", "%"},
    {"serve.submit_pct", "%"},
    {"serve.latency_pct.dgr", "%"},
    {"serve.latency_pct.cugr2-lite", "%"},
    {"serve.latency_pct.sproute-lite", "%"},
    {"dag.path_candidates", "count"},
    {"dag.forest_mb", "MB"},
    {"core.tape_mb", "MB"},
    {"core.train_iterations", "count"},
    {"core.rollbacks", "count"},
    {"post.maze_refine.rerouted", "count"},
    {"post.maze_refine.improved", "count"},
    {"post.maze_refine.useful_ratio", "ratio"},
    {"post.layer_assign.vias", "count"},
    {"partition.cross_nets", "count"},
    {"partition.reconcile_rerouted", "count"},
    {"pipeline.repaired_nets", "count"},
    {"eval.overflow_edges", "count"},
    {"eval.overflow_total", "tracks"},
    {"eco.dirty_fraction_mean", "ratio"},
    {"eco.full_reroute_share", "ratio"},
    {"serve.reject_ratio", "ratio"},
    {"serve.queue_depth_max", "count"},
    {"serve.saturated_rps", "1/s"},
    {"serve.late_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.child_gap_pct", "%"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
  /// Set-up and wind-down beyond --seconds, for the hang guard's deadline.
  double overhead_s;
  /// util::ParallelRuntime workers when --pool-workers is not given; 0 is
  /// min(4, nproc). The serve workload runs its pool jobs inline (1): with
  /// more than one pool worker, concurrent serve workers submitting to the
  /// pool can wrap its two-slot job ring and hang (README.md).
  int pool_workers;
};

constexpr Workload kWorkloads[] = {
    {"congested_flow", run_congested_flow, 15.0, 0},
    {"clean_ladder", run_clean_ladder, 15.0, 0},
    {"eco_stream", run_eco_stream, 15.0, 0},
    {"serve_open_loop", run_serve_open_loop, 10.0, 1},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
  std::string names;
  bool child = false;
  bool selftest = false;
  int serve_workers = 2;
  double serve_rps = RunConfig{}.serve_rps;
  int pool_workers = 0;  ///< 0: the workload's default
};

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--trace-out PATH] [--smoke] [--names BENCHMARK.json]\n"
               "                   [--serve-workers N] [--serve-rps R] [--pool-workers N]\n"
               "       bench_suite --selftest\n"
               "workloads: congested_flow clean_ladder eco_stream serve_open_loop\n",
               why);
  return 2;
}

bool parse_options(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--child") {
      o.child = true;
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" || arg == "--trace-out" || arg == "--names") {
      if ((v = value()) == nullptr) return false;
      (arg == "--workload" ? o.workload : arg == "--names" ? o.names : o.trace_out) = v;
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace" ||
               arg == "--serve-workers" || arg == "--serve-rps" || arg == "--pool-workers") {
      if ((v = value()) == nullptr) return false;
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(x >= 0.0) || x > 1e12) {
        error = "bad value for " + arg + ": " + v;
        return false;
      }
      if (arg == "--seed") o.seed = static_cast<std::uint64_t>(x);
      if (arg == "--seconds") o.seconds = x;
      if (arg == "--trace") o.trace = x != 0.0;
      if (arg == "--serve-workers") o.serve_workers = std::max(1, static_cast<int>(x));
      if (arg == "--serve-rps") o.serve_rps = x;
      if (arg == "--pool-workers") o.pool_workers = static_cast<int>(std::min(x, 64.0));
    } else {
      error = "unknown argument " + arg;
      return false;
    }
  }
  if (!o.selftest && o.workload.empty()) error = "--workload is required";
  if (o.seconds < 1.0) error = "--seconds must be at least 1";
  return error.empty();
}

// ---- fingerprint -----------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }
std::size_t default_pool_workers() { return std::min(4u, nproc()); }

std::vector<std::string> fingerprint() {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  return {
      std::string("# host: ") + host + " nproc=" + std::to_string(nproc()) +
          " pool_workers=" + std::to_string(default_pool_workers()) + " (serve_open_loop: 1)" +
          " cpu=\"" + cpu_model() + "\"",
      std::string("# build: type=") + DGR_BENCH_BUILD_TYPE + " DGR_SIMD=" + DGR_BENCH_SIMD +
          " DGR_OBS=" + DGR_BENCH_OBS + " DGR_FAULT_INJECTION=" + DGR_BENCH_FAULT_INJECTION +
          " compiler=\"" + DGR_BENCH_COMPILER + "\" git=" + DGR_BENCH_GIT_SHA,
  };
}

// ---- child side --------------------------------------------------------------

std::mutex g_out_mu;

void emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_out_mu);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void emit_ops() {
  emit("@ops " + std::to_string(ops().attempted.load()) + " " +
       std::to_string(ops().answered.load()) + " " + std::to_string(ops().failed.load()));
}

/// "# <workload> op_ms: n=..., quartiles, MAD, and the highest percentile
/// the sample supports" -- the spread behind op_p50_ms and op_tail_ms.
std::string sample_summary(const std::string& workload, const std::vector<double>& ms) {
  const std::vector<double> q = quartiles(ms);
  const double tail = tail_percentile(ms.size());
  char line[320];
  std::snprintf(line, sizeof(line),
                "# %s op_ms: n=%zu q1=%.4g median=%.4g q3=%.4g mad=%.4g tail=%s", workload.c_str(),
                ms.size(), q[0], q[1], q[2], mad(ms),
                tail > 0.0 ? ("p" + obs::json::format_number(tail) + "=" +
                              obs::json::format_number(percentile(ms, tail)))
                                 .c_str()
                           : "none (under 20 samples)");
  return line;
}

obs::json::Value to_json(const std::map<std::string, double>& m) {
  obs::json::Value v = obs::json::Value::object();
  for (const auto& [name, value] : m) v[name] = value;
  return v;
}

int child_main(const Options& o, const Workload& w) {
  util::set_log_level(util::LogLevel::kWarn);
  const int pool = o.pool_workers > 0 ? o.pool_workers : w.pool_workers;
  util::set_worker_count(pool > 0 ? static_cast<std::size_t>(pool) : default_pool_workers());

  std::atomic<bool> done{false};
  std::thread reporter([&done] {
    while (!done.load()) {
      emit_ops();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  SpanLog log;
  RunConfig config;
  config.seed = o.seed;
  config.seconds = o.seconds;
  config.smoke = o.smoke;
  config.spans = o.trace ? &log : nullptr;
  config.serve_workers = o.serve_workers;
  config.serve_rps = o.serve_rps;
  RunResult r;
  try {
    r = w.run(config);
  } catch (const std::exception& e) {
    r.check(false, std::string("workload threw: ") + e.what());
  }
  done.store(true);
  reporter.join();
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  if (o.trace) r.layers["op.samples"] = static_cast<double>(r.op_ms.size());
  if (!r.op_ms.empty()) emit(sample_summary(w.name, r.op_ms));
  if (o.trace && !o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    out << log.chrome_json() << "\n";
    r.check(static_cast<bool>(out), "cannot write the trace to " + o.trace_out);
  }

  obs::json::Value doc = obs::json::Value::object();
  doc["attempted"] = ops().attempted.load();
  doc["answered"] = ops().answered.load();
  doc["failed"] = ops().failed.load();
  doc["e2e"] = to_json(r.e2e);
  doc["layers"] = to_json(r.layers);
  obs::json::Value checks = obs::json::Value::array();
  for (const std::string& c : r.failed_checks) checks.push_back(c);
  doc["failed_checks"] = checks;
  emit("@result " + doc.dump());
  return 0;
}

// ---- parent side: the hang guard ---------------------------------------------

struct Outcome {
  bool finished = false;  ///< the child exited cleanly and reported a result
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> failed_checks;
};

std::string child_trace_path(const Options& o, const std::string& workload) {
  if (o.trace_out.empty() || o.workload != "all") return o.trace_out;
  std::string base = o.trace_out;
  if (base.ends_with(".json")) base.resize(base.size() - 5);
  return base + "_" + workload + ".json";
}

void read_numbers(const obs::json::Value* obj, std::map<std::string, double>& out) {
  if (obj == nullptr) return;
  for (const auto& [name, value] : obj->members()) out[name] = value.as_number();
}

Outcome run_guarded(const Options& o, const Workload& w) {
  std::vector<std::string> args = {"bench_suite", "--child", "--workload", w.name,
                                   "--seed", std::to_string(o.seed),
                                   "--seconds", obs::json::format_number(o.seconds),
                                   "--trace", o.trace ? "1" : "0",
                                   "--serve-workers", std::to_string(o.serve_workers),
                                   "--serve-rps", obs::json::format_number(o.serve_rps),
                                   "--pool-workers", std::to_string(o.pool_workers)};
  if (o.smoke) args.push_back("--smoke");
  const std::string trace_path = child_trace_path(o, w.name);
  if (!trace_path.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_path);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  Outcome out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.failed_checks.push_back("pipe() failed");
    return out;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out.failed_checks.push_back("fork() failed");
    return out;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);

  const double limit_s = std::min(170.0, 2.0 * (o.seconds + w.overhead_s));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(limit_s));
  std::int64_t answered = 0;
  bool have_result = false;
  bool timed_out = false;
  std::string buffer;
  auto handle_line = [&](const std::string& line) {
    if (line.rfind("@ops ", 0) == 0) {
      long long a = 0, n = 0, f = 0;
      if (std::sscanf(line.c_str() + 5, "%lld %lld %lld", &a, &n, &f) == 3) {
        out.attempted = a;
        answered = n;
        out.failed = f;
      }
    } else if (line.rfind("@result ", 0) == 0) {
      obs::json::Value doc;
      const obs::json::Value* checks = nullptr;
      if (!obs::json::Value::parse(line.substr(8), &doc) ||
          (checks = doc.find("failed_checks")) == nullptr) {
        return;
      }
      auto count = [&doc](const char* key) {
        const obs::json::Value* v = doc.find(key);
        return v != nullptr ? static_cast<std::int64_t>(v->as_number()) : 0;
      };
      have_result = true;
      out.attempted = count("attempted");
      answered = count("answered");
      out.failed = count("failed");
      read_numbers(doc.find("e2e"), out.e2e);
      read_numbers(doc.find("layers"), out.layers);
      for (const obs::json::Value& c : checks->items()) out.failed_checks.push_back(c.as_string());
    } else {
      std::printf("%s\n", line.c_str());
    }
  };
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(std::min<long long>(left, 1000)));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF: the child closed its stdout
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      handle_line(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
    }
  }
  if (timed_out) kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  out.finished = have_result && !timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (timed_out) {
    out.failed_checks.push_back(std::string(w.name) + " missed its " +
                                obs::json::format_number(limit_s) +
                                " s deadline and was killed");
  } else if (!out.finished) {
    out.failed_checks.push_back(std::string(w.name) + " child ended without a result (status " +
                                std::to_string(status) + ")");
  }
  if (!out.finished) {
    // Every op the child started and never answered is a failed op.
    out.failed += std::max<std::int64_t>(0, out.attempted - answered);
    if (out.attempted == 0) out.attempted = out.failed = 1;
  }
  return out;
}

// ---- output ------------------------------------------------------------------

/// Prints `workload metric value unit` lines and adds the metrics of the
/// traced (per-layer) or untraced (end-to-end) set to `json_metrics`.
void print_metrics(const Options& o, const std::string& workload, Outcome& out,
                   obs::json::Value& json_metrics, bool prefix) {
  auto print_set = [&](const MetricDef* defs, std::size_t count,
                       const std::map<std::string, double>& values, bool required,
                       bool to_json) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto it = values.find(defs[i].name);
      if (it == values.end() && required && out.finished) {
        out.failed_checks.push_back(std::string("metric ") + defs[i].name + " was not measured");
      }
      const double value = it != values.end() ? it->second : 0.0;
      std::printf("%s %s %s %s\n", workload.c_str(), defs[i].name,
                  obs::json::format_number(value).c_str(), defs[i].unit);
      if (to_json) {
        obs::json::Value m = obs::json::Value::object();
        m["value"] = value;
        m["unit"] = defs[i].unit;
        json_metrics[prefix ? workload + "." + defs[i].name : std::string(defs[i].name)] = m;
      }
    }
  };
  print_set(kEndToEnd, std::size(kEndToEnd), out.e2e, true, !o.trace);
  if (o.trace) print_set(kPerLayer, std::size(kPerLayer), out.layers, false, true);
  for (const std::string& c : out.failed_checks) {
    std::printf("# %s check failed: %s\n", workload.c_str(), c.c_str());
  }
}

/// bench.suite_smoke: BENCHMARK.json must list exactly the suite's metrics,
/// with the suite's units.
bool check_names(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  obs::json::Value doc;
  std::string error;
  if (!in || !obs::json::Value::parse(text.str(), &doc, &error)) {
    std::printf("# cannot read %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  bool ok = true;
  auto compare = [&](const char* key, const MetricDef* defs, std::size_t count) {
    std::map<std::string, std::string> declared;
    if (const obs::json::Value* list = doc.find(key)) {
      for (const obs::json::Value& m : list->items()) {
        const obs::json::Value* name = m.find("name");
        const obs::json::Value* unit = m.find("unit");
        if (name != nullptr && unit != nullptr) declared[name->as_string()] = unit->as_string();
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto it = declared.find(defs[i].name);
      if (it == declared.end() || it->second != defs[i].unit) {
        std::printf("# %s: %s (%s) printed but not declared with that unit\n", path.c_str(),
                    defs[i].name, defs[i].unit);
        ok = false;
      }
      declared.erase(defs[i].name);
    }
    for (const auto& [name, unit] : declared) {
      std::printf("# %s: %s (%s) declared but never printed\n", path.c_str(), name.c_str(),
                  unit.c_str());
      ok = false;
    }
  };
  compare("end_to_end", kEndToEnd, std::size(kEndToEnd));
  compare("per_layer", kPerLayer, std::size(kPerLayer));
  return ok;
}

// ---- selftest ----------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  const std::vector<double> q = quartiles(ten);  // statistics.quantiles(range(1, 11), n=4)
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25), "quartiles of 1..10");
  const std::vector<double> q4 = quartiles({4, 1, 3, 2});
  expect(near(q4[0], 1.25) && near(q4[1], 2.5) && near(q4[2], 3.75), "quartiles of 1..4");
  expect(near(quartiles({7})[2], 7.0), "quartiles of one value");
  expect(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 3, 2}), 2.5), "median");
  expect(near(percentile({1, 2, 3, 4, 5}, 90), 4.6), "percentile interpolates");
  expect(near(percentile({}, 50), 0.0), "percentile of nothing");
  expect(near(mad({1, 1, 2, 2, 4, 6, 9}), 1.0), "median absolute deviation");
  expect(near(windowed_percentile({1, 2, 3, 100, 5, 6, 7, 8}, 2, 50), 4.5),
         "windowed percentile takes the median over windows");
  expect(tail_percentile(19) == 0.0 && tail_percentile(20) == 50.0 &&
             tail_percentile(100) == 90.0 && tail_percentile(199) == 90.0 &&
             tail_percentile(200) == 95.0 && tail_percentile(1000) == 99.0 &&
             tail_percentile(10000) == 99.9,
         "tail percentile keeps ten samples beyond it");

  SpanLog log;
  const int root = log.add("bench.pass", "", 0.0, 100.0, -1, false);
  const int stage = log.add("core.train", "d", 0.0, 60.0, root, false);
  log.add_stages(stage, {{"inner", 10e-6}});
  log.add("eval.metrics", "d", 60.0, 97.0, root, false);
  const std::map<std::string, double> self = log.self_us_by_name("bench.pass");
  expect(near(self.at("core.train"), 50.0) && near(self.at("inner"), 10.0) &&
             near(self.at("bench.pass"), 3.0),
         "self time subtracts children");
  expect(near(log.worst_child_gap(), 0.03), "child gap of a grouping span");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  using namespace dgr::bench;
  Options o;
  std::string error;
  if (!parse_options(argc, argv, o, error)) return usage(error.c_str());
  if (o.selftest) return selftest();

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage(("unknown workload " + o.workload).c_str());
  if (o.child) return child_main(o, *selected.front());

  for (const std::string& line : fingerprint()) std::printf("%s\n", line.c_str());
  bool ok = o.names.empty() || check_names(o.names);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  dgr::obs::json::Value metrics = dgr::obs::json::Value::object();
  for (const Workload* w : selected) {
    Outcome out = run_guarded(o, *w);
    print_metrics(o, w->name, out, metrics, selected.size() > 1);
    ok = ok && out.finished && out.failed_checks.empty() && out.failed == 0;
    attempted += out.attempted;
    failed += out.failed;
  }
  dgr::obs::json::Value result = dgr::obs::json::Value::object();
  result["correct"] = ok;
  result["attempted"] = std::max<std::int64_t>(attempted, 1);
  result["failed"] = failed;
  result["metrics"] = metrics;
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
