// Observability subsystem tests (DESIGN.md §8): the JSON document model,
// span tracing across pool workers, metric semantics (counter/gauge/
// histogram bucket edges), snapshot determinism across worker counts, the
// convergence telemetry's no-allocation contract, the dgr-bench-v1 schema
// validator, and — the integration lock-down — a full Pipeline run with
// tracing enabled producing a well-formed Chrome trace with nested stage
// spans and per-iteration solver counters, bitwise identical to the
// untraced run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "design/generator.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace dgr::obs {
namespace {

/// Restores the default worker count and disables tracing even when a test
/// fails mid-way, so suites stay independent.
struct ObsTestGuard {
  ~ObsTestGuard() {
    set_tracing(false);
    util::set_worker_count(0);
  }
};

// ---------------------------------------------------------------------------
// json::Value
// ---------------------------------------------------------------------------

TEST(ObsJson, DumpPreservesInsertionOrder) {
  json::Value doc = json::Value::object();
  doc["zulu"] = 1;
  doc["alpha"] = 2;
  EXPECT_EQ(doc.dump(), "{\"zulu\":1,\"alpha\":2}");
}

TEST(ObsJson, IntegersPrintWithoutFraction) {
  EXPECT_EQ(json::format_number(3.0), "3");
  EXPECT_EQ(json::format_number(-17.0), "-17");
  EXPECT_EQ(json::format_number(0.0), "0");
}

TEST(ObsJson, NonIntegersRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-20, 6.02e23, -2.5}) {
    const std::string s = json::format_number(v);
    json::Value parsed;
    ASSERT_TRUE(json::Value::parse(s, &parsed)) << s;
    EXPECT_EQ(parsed.as_number(), v) << s;
  }
}

TEST(ObsJson, ParseRoundTripsDump) {
  json::Value doc = json::Value::object();
  doc["s"] = "quote \" backslash \\ newline \n";
  doc["n"] = 1.25;
  doc["b"] = true;
  json::Value& arr = doc["a"];
  arr = json::Value::array();
  arr.push_back(1);
  arr.push_back(json::Value());  // null
  const std::string text = doc.dump(2);
  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::Value::parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.dump(2), text);
}

TEST(ObsJson, ParseRejectsMalformed) {
  json::Value out;
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"}) {
    EXPECT_FALSE(json::Value::parse(bad, &out)) << bad;
  }
  // Nesting: kMaxDepth levels of mixed arrays and objects parse, one more
  // level fails with the parser's usual error.
  auto nested = [](int depth) {
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
      open += i % 2 == 0 ? "[" : "{\"k\":";
      close.insert(0, i % 2 == 0 ? "]" : "}");
    }
    return open + "1" + close;
  };
  EXPECT_TRUE(json::Value::parse(nested(json::kMaxDepth), &out));
  std::string error;
  EXPECT_FALSE(json::Value::parse(nested(json::kMaxDepth + 1), &out, &error));
  EXPECT_NE(error.find("nesting deeper than 64 levels"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledSitesEmitNothing) {
  ObsTestGuard guard;
  reset_trace();
  ASSERT_FALSE(tracing_enabled());
  { DGR_TRACE_SCOPE("test.disabled"); }
  DGR_TRACE_INSTANT("test.disabled_instant");
  DGR_TRACE_COUNTER("test.disabled_counter", 1.0);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(ObsTrace, SpansNestAcrossPoolWorkers) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  util::set_worker_count(4);

  // Each item burns real work so workers that the scheduler runs mid-job
  // claim whole chunks of it. The untraced warm-up spawns the pool threads;
  // its job is submitted with tracing off, so even workers that wake for it
  // late (inside the traced window below) emit no "pool.job" span.
  std::atomic<std::int64_t> sink{0};
  const auto body = [&](std::size_t i) {
    DGR_TRACE_SCOPE("test.inner");
    double acc = static_cast<double>(i);
    for (int k = 0; k < 4000; ++k) acc = acc * 1.0000001 + 1.0;
    sink.fetch_add(static_cast<std::int64_t>(acc), std::memory_order_relaxed);
  };
  util::ParallelRuntime::for_each(0, 256, body, /*grain=*/8);

  reset_trace();
  set_tracing(true);
  {
    DGR_TRACE_SCOPE("test.outer");
    util::ParallelRuntime::for_each(0, 256, body, /*grain=*/8);
  }
  set_tracing(false);

  json::Value doc;
  ASSERT_TRUE(json::Value::parse(chrome_trace_json(), &doc));
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Each event keyed by name; spans must nest: every "test.inner" interval
  // and every per-participant "pool.job" interval lies inside the single
  // "test.outer" interval (a traced submission drains all participants
  // before returning, so their spans close before the outer scope does).
  double outer_lo = 0.0, outer_hi = -1.0;
  std::size_t inner = 0, pool_jobs = 0;
  std::set<double> tids;
  for (const json::Value& ev : events->items()) {
    const json::Value* name = ev.find("name");
    ASSERT_NE(name, nullptr);
    if (name->as_string() == "test.outer") {
      outer_lo = ev.find("ts")->as_number();
      outer_hi = outer_lo + ev.find("dur")->as_number();
    }
  }
  ASSERT_GE(outer_hi, outer_lo);
  for (const json::Value& ev : events->items()) {
    const std::string& name = ev.find("name")->as_string();
    if (name == "test.inner") {
      ++inner;
      const double lo = ev.find("ts")->as_number();
      const double hi = lo + ev.find("dur")->as_number();
      EXPECT_GE(lo, outer_lo);
      EXPECT_LE(hi, outer_hi);
    } else if (name == "pool.job") {
      ++pool_jobs;
      const double lo = ev.find("ts")->as_number();
      const double hi = lo + ev.find("dur")->as_number();
      EXPECT_GE(lo, outer_lo);
      EXPECT_LE(hi, outer_hi);
      tids.insert(ev.find("tid")->as_number());
    }
  }
  // 256 items / grain 8 = 32 chunks; each claimed chunk runs the lambda per
  // item, one span per item, whichever participant claimed it.
  EXPECT_EQ(inner, 256u);
  // All 4 participants (caller + 3 pool threads) ran the traced job body —
  // the pool drains every enrolled worker before a traced submission
  // returns — and their spans come from distinct threads, proving the
  // per-thread ring buffers merge into one coherent timeline. (Which
  // participants claim item chunks is the scheduler's choice and is
  // deliberately not asserted.)
  EXPECT_EQ(pool_jobs, 4u);
  EXPECT_GT(tids.size(), 1u) << "expected pool.job spans on more than one thread";
}

TEST(ObsTrace, CounterAndInstantEventsCarryPayload) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  reset_trace();
  set_tracing(true);
  DGR_TRACE_COUNTER("test.counter", 2.5);
  DGR_TRACE_INSTANT("test.instant");
  set_tracing(false);

  json::Value doc;
  ASSERT_TRUE(json::Value::parse(chrome_trace_json(), &doc));
  bool saw_counter = false, saw_instant = false;
  for (const json::Value& ev : doc.find("traceEvents")->items()) {
    const std::string& name = ev.find("name")->as_string();
    if (name == "test.counter") {
      saw_counter = true;
      EXPECT_EQ(ev.find("ph")->as_string(), "C");
      EXPECT_EQ(ev.find("args")->find("value")->as_number(), 2.5);
    } else if (name == "test.instant") {
      saw_instant = true;
      EXPECT_EQ(ev.find("ph")->as_string(), "i");
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, InternReturnsStablePointers) {
  const char* a = intern("test.site-a");
  const char* b = intern(std::string("test.site-") + "a");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "test.site-a");
}

// ---------------------------------------------------------------------------
// Trace contexts (request-scoped correlation, DESIGN.md §8)
// ---------------------------------------------------------------------------

/// Maps every complete span name to its args.req (empty string when the
/// span carried no request context).
std::map<std::string, std::string> spans_by_req(const std::string& trace_text) {
  json::Value doc;
  EXPECT_TRUE(json::Value::parse(trace_text, &doc));
  std::map<std::string, std::string> out;
  for (const json::Value& ev : doc.find("traceEvents")->items()) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const json::Value* args = ev.find("args");
    const json::Value* req = args != nullptr ? args->find("req") : nullptr;
    out[ev.find("name")->as_string()] =
        req != nullptr ? req->as_string() : std::string();
  }
  return out;
}

TEST(ObsTraceContext, ScopeStampsSpansAndRestoresOnExit) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  EXPECT_FALSE(current_trace_context().active());

  reset_trace();
  set_tracing(true);
  {
    TraceContextScope ctx("req-1", "route", "sess-1");
    EXPECT_TRUE(current_trace_context().active());
    { DGR_TRACE_SCOPE("test.ctx.outer"); }
    {
      TraceContextScope nested("req-2", "", "");
      { DGR_TRACE_SCOPE("test.ctx.nested"); }
    }
    // Leaving the nested scope restores the outer request's context.
    { DGR_TRACE_SCOPE("test.ctx.restored"); }
  }
  EXPECT_FALSE(current_trace_context().active());
  { DGR_TRACE_SCOPE("test.ctx.outside"); }
  set_tracing(false);

  const std::map<std::string, std::string> by_req = spans_by_req(chrome_trace_json());
  EXPECT_EQ(by_req.at("test.ctx.outer"), "req-1");
  EXPECT_EQ(by_req.at("test.ctx.nested"), "req-2");
  EXPECT_EQ(by_req.at("test.ctx.restored"), "req-1");
  EXPECT_EQ(by_req.at("test.ctx.outside"), "");

  // op/session ride along on the stamped span.
  json::Value doc;
  ASSERT_TRUE(json::Value::parse(chrome_trace_json(), &doc));
  for (const json::Value& ev : doc.find("traceEvents")->items()) {
    if (ev.find("name")->as_string() != "test.ctx.outer") continue;
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("op")->as_string(), "route");
    EXPECT_EQ(args->find("session")->as_string(), "sess-1");
  }
}

TEST(ObsTraceContext, ContextPropagatesToPoolWorkers) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  util::set_worker_count(4);

  std::atomic<std::int64_t> sink{0};
  const auto body = [&](std::size_t i) {
    DGR_TRACE_SCOPE("test.ctx.pool_inner");
    double acc = static_cast<double>(i);
    for (int k = 0; k < 4000; ++k) acc = acc * 1.0000001 + 1.0;
    sink.fetch_add(static_cast<std::int64_t>(acc), std::memory_order_relaxed);
  };
  // Untraced warm-up spawns the pool threads (see SpansNestAcrossPoolWorkers).
  util::ParallelRuntime::for_each(0, 256, body, /*grain=*/8);

  reset_trace();
  set_tracing(true);
  {
    TraceContextScope ctx("pool-req", "route", "pool-sess");
    util::ParallelRuntime::for_each(0, 256, body, /*grain=*/8);
  }
  set_tracing(false);

  // The submitter's context crosses the dispatch boundary: every pool.job
  // span — including those on pool worker threads that never saw the scope
  // directly — and every span nested inside one carries the request id.
  json::Value doc;
  ASSERT_TRUE(json::Value::parse(chrome_trace_json(), &doc));
  std::size_t pool_jobs = 0, inner = 0;
  for (const json::Value& ev : doc.find("traceEvents")->items()) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const std::string& name = ev.find("name")->as_string();
    if (name != "pool.job" && name != "test.ctx.pool_inner") continue;
    name == "pool.job" ? ++pool_jobs : ++inner;
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr) << name;
    ASSERT_NE(args->find("req"), nullptr) << name;
    EXPECT_EQ(args->find("req")->as_string(), "pool-req") << name;
  }
  EXPECT_EQ(pool_jobs, 4u);
  EXPECT_EQ(inner, 256u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(ObsPrometheus, NameManglingTable) {
  EXPECT_EQ(prometheus_name("serve.requests.offered"), "dgr_serve_requests_offered");
  EXPECT_EQ(prometheus_name("serve.latency_ms"), "dgr_serve_latency_ms");
  EXPECT_EQ(prometheus_name("route.dgr-fallback"), "dgr_route_dgr_fallback");
  EXPECT_EQ(prometheus_name("a.b", "ns"), "ns_a_b");
  EXPECT_EQ(prometheus_name("plain", ""), "plain");
}

TEST(ObsPrometheus, RenderMatchesGoldenText) {
  Counter& c = metrics().counter("test.prom.count");
  c.reset();
  c.add(3);
  Gauge& g = metrics().gauge("test.prom.gauge");
  g.set(1.5);
  Histogram& h = metrics().histogram("test.prom.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);  // overflow: in +Inf and _count only

  PrometheusOptions options;
  options.include_prefixes = {"test.prom."};
  EXPECT_EQ(prometheus_text(options),
            "# TYPE dgr_test_prom_count counter\n"
            "dgr_test_prom_count 3\n"
            "# TYPE dgr_test_prom_gauge gauge\n"
            "dgr_test_prom_gauge 1.5\n"
            "# TYPE dgr_test_prom_hist histogram\n"
            "dgr_test_prom_hist_bucket{le=\"1\"} 1\n"
            "dgr_test_prom_hist_bucket{le=\"2\"} 2\n"
            "dgr_test_prom_hist_bucket{le=\"+Inf\"} 3\n"
            "dgr_test_prom_hist_count 3\n");

  // exclude_prefixes carves series out after include filtering.
  options.exclude_prefixes = {"test.prom.hist", "test.prom.gauge"};
  EXPECT_EQ(prometheus_text(options),
            "# TYPE dgr_test_prom_count counter\n"
            "dgr_test_prom_count 3\n");
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterAccumulates) {
  Counter& c = metrics().counter("test.counter_accumulates");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsMetrics, RegistryReturnsSameInstance) {
  Counter& a = metrics().counter("test.same_instance");
  Counter& b = metrics().counter("test.same_instance");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, HistogramBucketEdges) {
  Histogram& h = metrics().histogram("test.bucket_edges", {1.0, 2.0, 4.0});
  h.reset();
  // Bucket i counts bound[i-1] < v <= bound[i]; the last bucket is overflow.
  h.observe(0.5);   // bucket 0 (v <= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper edge)
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1 (inclusive upper edge)
  h.observe(2.001); // bucket 2
  h.observe(4.0);   // bucket 2
  h.observe(4.5);   // overflow bucket
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.total_count(), 7);
}

TEST(ObsMetrics, SnapshotIsSortedAndParses) {
  metrics().counter("test.zz_last").reset();
  metrics().counter("test.aa_first").reset();
  const std::string text = metrics().snapshot_json();
  json::Value doc;
  ASSERT_TRUE(json::Value::parse(text, &doc));
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  std::vector<std::string> names;
  for (const auto& [name, value] : counters->members()) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ObsMetrics, SnapshotDeterministicAcrossWorkerCounts) {
  ObsTestGuard guard;
  // The same deterministic parallel workload must yield byte-identical
  // snapshots at any worker count: histograms keep integer bucket counts
  // only (no order-dependent FP sum), counters are integer adds.
  auto run_workload = [] {
    metrics().reset();
    Counter& items = metrics().counter("test.det.items");
    Histogram& h = metrics().histogram("test.det.hist", {10.0, 100.0, 1000.0});
    util::ParallelRuntime::for_each(
        0, 4096,
        [&](std::size_t i) {
          items.add();
          h.observe(static_cast<double>(i % 2000));
        },
        /*grain=*/32);
    return metrics().snapshot_json();
  };

  util::set_worker_count(1);
  const std::string ref = run_workload();
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    util::set_worker_count(workers);
    EXPECT_EQ(run_workload(), ref) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// ConvergenceSeries
// ---------------------------------------------------------------------------

TEST(ObsConvergence, ReservedPushDoesNotAllocate) {
  Counter& growth = metrics().counter("obs.convergence.unreserved_growth");
  growth.reset();
  ConvergenceSeries series;
  series.reserve(64);
  for (int i = 0; i < 64; ++i) {
    series.push({i, 1.0, 0.5, 0.9, 0.1});
  }
  EXPECT_EQ(series.size(), 64u);
  EXPECT_EQ(growth.value(), 0) << "push within reserved capacity allocated";
  // The 65th sample exceeds the reservation: allowed, but counted.
  series.push({64, 1.0, 0.5, 0.9, 0.1});
  EXPECT_EQ(growth.value(), 1);
}

TEST(ObsConvergence, TruncateRewindsSamplesButKeepsRollbacks) {
  ConvergenceSeries series;
  series.reserve(8);
  for (int i = 0; i < 8; ++i) series.push({i, double(i), 0, 0, 0});
  series.rollbacks.push_back({7, 3});
  series.truncate(3);
  EXPECT_EQ(series.size(), 3u);
  ASSERT_EQ(series.rollbacks.size(), 1u);
  EXPECT_EQ(series.rollbacks[0].at_iteration, 7);
  EXPECT_EQ(series.rollbacks[0].resumed_from, 3);
}

TEST(ObsConvergence, ToJsonIsColumnar) {
  ConvergenceSeries series;
  series.reserve(2);
  series.push({0, 10.0, 1.0, 0.9, 0.5});
  series.push({1, 9.0, 0.8, 0.9, 0.4});
  const json::Value doc = series.to_json();
  ASSERT_NE(doc.find("loss"), nullptr);
  EXPECT_EQ(doc.find("loss")->size(), 2u);
  EXPECT_EQ(doc.find("loss")->items()[1].as_number(), 9.0);
  ASSERT_NE(doc.find("iteration"), nullptr);
  EXPECT_EQ(doc.find("iteration")->items()[0].as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// BenchEmitter / dgr-bench-v1 schema
// ---------------------------------------------------------------------------

TEST(ObsBench, EmitterProducesValidSchema) {
  BenchEmitter bench("unit_test", "none (unit test)");
  bench.set_config("scale", 3.0);
  bench.set_config("mode", "fast");
  bench.add_row("case-a").metric("wl", 100).stage("route", 0.5).note("status", "ok");
  bench.add_row("case-b").metrics({{"wl", 120.0}, {"ovf", 3.0}});
  bench.summary("total_wl", 220.0);

  const json::Value doc = bench.to_json();
  std::string error;
  EXPECT_TRUE(validate_bench_json(doc, &error)) << error;
  EXPECT_EQ(doc.find("schema")->as_string(), BenchEmitter::kSchemaId);
  EXPECT_EQ(bench.default_path(), "BENCH_unit_test.json");

  // Round-trip through text: the validator accepts what the writer wrote.
  json::Value parsed;
  ASSERT_TRUE(json::Value::parse(doc.dump(1), &parsed));
  EXPECT_TRUE(validate_bench_json(parsed, &error)) << error;
}

TEST(ObsBench, ValidatorRejectsViolations) {
  BenchEmitter bench("unit_test", "none");
  bench.add_row("case-a").metric("wl", 1);
  std::string error;

  {  // wrong schema id
    json::Value doc = bench.to_json();
    doc["schema"] = "dgr-bench-v0";
    EXPECT_FALSE(validate_bench_json(doc, &error));
  }
  {  // rows must be present
    json::Value doc = json::Value::object();
    doc["schema"] = BenchEmitter::kSchemaId;
    doc["bench"] = "x";
    EXPECT_FALSE(validate_bench_json(doc, &error));
  }
  {  // metrics values must be numbers
    json::Value doc = bench.to_json();
    json::Value bad = json::Value::object();
    bad["case"] = "bad";
    bad["metrics"]["wl"] = "not-a-number";
    doc["rows"].push_back(std::move(bad));
    EXPECT_FALSE(validate_bench_json(doc, &error));
    EXPECT_NE(error.find("metrics"), std::string::npos) << error;
  }
}

// ---------------------------------------------------------------------------
// Integration: the full pipeline under observation
// ---------------------------------------------------------------------------

design::Design obs_design(std::uint64_t seed = 99) {
  design::IspdLikeParams p;
  p.name = "obs_small";
  p.grid_w = p.grid_h = 16;
  p.num_nets = 120;
  p.layers = 5;
  p.tracks_per_layer = 3;
  p.hotspot_affinity = 0.5;
  return design::generate_ispd_like(p, seed);
}

pipeline::RouterOptions obs_options() {
  pipeline::RouterOptions o;
  o.dgr.iterations = 60;
  o.dgr.temperature_interval = 20;
  o.dgr.record_telemetry = true;
  return o;
}

TEST(ObsIntegration, PipelineTraceHasNestedStageSpansAndSolverCounters) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  util::set_log_level(util::LogLevel::kError);
  metrics().counter("obs.convergence.unreserved_growth").reset();

  const design::Design d = obs_design();
  pipeline::RoutingContext ctx(d);
  pipeline::Pipeline pipe(ctx);
  const auto router = pipeline::make_router("dgr", obs_options());
  ASSERT_NE(router, nullptr);

  reset_trace();
  set_tracing(true);
  const pipeline::PipelineResult r =
      pipe.run(*router, {.maze_refine = true, .layer_assign = true});
  set_tracing(false);

  ASSERT_TRUE(r.stats.status.ok()) << r.stats.status.to_string();

  // Telemetry surfaced through RouterStats, one sample per kept iteration,
  // with zero unreserved growth (the train loop's no-allocation contract).
  EXPECT_EQ(r.stats.convergence.size(), 60u);
  EXPECT_EQ(metrics().counter("obs.convergence.unreserved_growth").value(), 0);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Value::parse(chrome_trace_json(), &doc, &error)) << error;

  struct Span {
    double lo = 0.0, hi = 0.0;
  };
  std::map<std::string, Span> first_span;
  std::map<std::string, std::size_t> counts;
  for (const json::Value& ev : doc.find("traceEvents")->items()) {
    const std::string& name = ev.find("name")->as_string();
    ++counts[name];
    const json::Value* ph = ev.find("ph");
    if (ph != nullptr && ph->as_string() == "X" && first_span.count(name) == 0) {
      const double lo = ev.find("ts")->as_number();
      first_span[name] = {lo, lo + ev.find("dur")->as_number()};
    }
  }

  // The acceptance spans: route / maze refine / layer assign / eval, all
  // nested inside pipeline.run.
  for (const char* stage : {"pipeline.run", "pipeline.route_total", "route.dgr",
                            "dag.forest_build", "core.train", "core.extract",
                            "pipeline.maze_refine", "post.maze_refine",
                            "pipeline.layer_assign", "post.layer_assign",
                            "pipeline.eval"}) {
    ASSERT_TRUE(first_span.count(stage)) << "missing span " << stage;
  }
  const Span run = first_span["pipeline.run"];
  for (const char* inner : {"pipeline.route_total", "pipeline.maze_refine",
                            "pipeline.layer_assign", "pipeline.eval"}) {
    EXPECT_GE(first_span[inner].lo, run.lo) << inner;
    EXPECT_LE(first_span[inner].hi, run.hi) << inner;
  }
  EXPECT_GE(first_span["core.train"].lo, first_span["route.dgr"].lo);
  EXPECT_LE(first_span["core.train"].hi, first_span["route.dgr"].hi);

  // Per-iteration solver counter series: one 'C' event per counter per step.
  for (const char* counter :
       {"dgr.loss", "dgr.overflow", "dgr.temperature", "dgr.grad_norm"}) {
    EXPECT_EQ(counts[counter], 60u) << counter;
  }
  EXPECT_EQ(counts["core.train_step"], 60u);
}

TEST(ObsIntegration, TracingPreservesBitwiseDeterminismAcrossWorkerCounts) {
  if (!compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ObsTestGuard guard;
  util::set_log_level(util::LogLevel::kError);
  const design::Design d = obs_design(11);

  // The tracer only observes — with tracing ON the training trajectory must
  // stay bitwise identical across worker counts, and identical to the
  // untraced run.
  auto run_at = [&](std::size_t workers, bool traced) {
    util::set_worker_count(workers);
    reset_trace();
    set_tracing(traced);
    pipeline::RoutingContext ctx(d);
    pipeline::Pipeline pipe(ctx);
    const auto router = pipeline::make_router("dgr", obs_options());
    const pipeline::PipelineResult r = pipe.run(*router, {.layer_assign = false});
    set_tracing(false);
    std::vector<double> sig;
    for (const IterationSample& s : r.stats.convergence.samples()) {
      sig.push_back(s.loss);
      sig.push_back(s.grad_norm);
    }
    sig.push_back(r.metrics.total_overflow);
    sig.push_back(static_cast<double>(r.metrics.wirelength));
    return sig;
  };

  const std::vector<double> ref = run_at(1, /*traced=*/false);
  ASSERT_EQ(ref.size(), 2u * 60u + 2u);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::vector<double> got = run_at(workers, /*traced=*/true);
    ASSERT_EQ(got.size(), ref.size()) << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]) << "workers=" << workers << " idx=" << i;
    }
  }
}

}  // namespace
}  // namespace dgr::obs
