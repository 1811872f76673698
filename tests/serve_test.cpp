// Serve suite (ctest -L serve): the routing-as-a-service daemon. Covers the
// wire protocol (every response self-validates with the same obs JSON parser
// the bench schema gate uses), admission control (queue-full / rate-limit
// rejections are typed, never dropped), deadlines and the cancelling
// shutdown (one per-request util::Deadline), the retry-then-degrade
// sequencing of the route handler, session LRU eviction, worker-count
// determinism, the serve.* chaos sites, and a seeded fuzzer of hostile
// request lines. The acceptance gate lives at the bottom: a seeded
// mixed load of 200+ requests with every serve.* and pipeline fault site
// armed must end with zero crashes, every failure typed, and the accounting
// invariant offered = succeeded + rejected + failed intact.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "design/generator.hpp"
#include "design/io.hpp"
#include "obs/obs.hpp"
#include "pipeline/adapters.hpp"
#include "pipeline/context.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace dgr {
namespace {

using obs::json::Value;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;
using serve::SessionCache;
using serve::SessionCacheOptions;
using util::fault::FaultPlan;
using util::fault::ScopedPlan;

#define SKIP_WITHOUT_HOOKS()                                    \
  if (!util::fault::compiled_in()) {                            \
    GTEST_SKIP() << "built with -DDGR_FAULT_INJECTION=OFF";     \
  }

design::Design serve_design(std::uint64_t seed = 77, int grid = 10, int nets = 40) {
  design::IspdLikeParams p;
  p.name = "serve_small";
  p.grid_w = p.grid_h = grid;
  p.num_nets = nets;
  p.layers = 4;
  p.tracks_per_layer = 3;
  return design::generate_ispd_like(p, seed);
}

std::string design_text(const design::Design& d) {
  std::ostringstream os;
  design::write_design(os, d);
  return os.str();
}

std::string load_line(const std::string& id, const std::string& session,
                      const std::string& text, std::uint64_t seed = 0) {
  Value v = Value::object();
  v["id"] = id;
  v["op"] = "load";
  v["session"] = session;
  v["design"] = text;
  if (seed != 0) v["seed"] = static_cast<std::int64_t>(seed);
  return v.dump(0);
}

struct RouteSpec {
  std::string id;
  std::string session;
  std::string router;
  std::string fallback;
  std::uint64_t seed = 0;  ///< 0 = omit the field
  double deadline_ms = 0.0;
  int iterations = 0;
  int partitions = 0;  ///< 0 = omit the field
  bool telemetry = false;
};

std::string route_line(const RouteSpec& s) {
  Value v = Value::object();
  v["id"] = s.id;
  v["op"] = "route";
  v["session"] = s.session;
  if (!s.router.empty()) v["router"] = s.router;
  if (!s.fallback.empty()) v["fallback"] = s.fallback;
  if (s.seed != 0) v["seed"] = static_cast<std::int64_t>(s.seed);
  if (s.deadline_ms > 0.0) v["deadline_ms"] = s.deadline_ms;
  if (s.iterations > 0) v["iterations"] = s.iterations;
  if (s.partitions > 0) v["partitions"] = s.partitions;
  if (s.telemetry) v["telemetry"] = true;
  return v.dump(0);
}

/// Parses a response line and checks the envelope invariants. Never returns
/// an unvalidated document: a malformed response is a test failure.
Value expect_valid_response(const std::string& line) {
  Value doc;
  std::string err;
  EXPECT_TRUE(Value::parse(line, &doc, &err)) << err << "\n" << line;
  std::string verr;
  EXPECT_TRUE(serve::validate_response_json(doc, &verr)) << verr << "\n" << line;
  return doc;
}

bool response_ok(const Value& doc) {
  const Value* ok = doc.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_code(const Value& doc) {
  const Value* err = doc.find("error");
  if (err == nullptr) return "";
  const Value* code = err->find("code");
  return code != nullptr && code->is_string() ? code->as_string() : "";
}

void expect_accounting_invariant(const Server& server) {
  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.offered, a.succeeded + a.rejected + a.failed)
      << "offered=" << a.offered << " succeeded=" << a.succeeded
      << " rejected=" << a.rejected << " failed=" << a.failed;
}

// ---------------------------------------------------------------------------
// Protocol: request parsing
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripAllOps) {
  {
    const Result<Request> r = serve::parse_request(R"({"id":"p","op":"ping"})");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().op, Op::kPing);
    EXPECT_EQ(r.value().id, "p");
  }
  {
    const Result<Request> r = serve::parse_request(
        R"({"id":"l","op":"load","session":"s1","design":"dgrd 1\n...","seed":9})");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().op, Op::kLoad);
    EXPECT_EQ(r.value().session, "s1");
    EXPECT_TRUE(r.value().has_seed);
    EXPECT_EQ(r.value().seed, 9u);
  }
  {
    const Result<Request> r = serve::parse_request(
        R"({"id":"r","op":"route","session":"s1","router":"dgr","fallback":"none",)"
        R"("deadline_ms":250,"iterations":40,"telemetry":true,"keep":false})");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    const Request& req = r.value();
    EXPECT_EQ(req.op, Op::kRoute);
    EXPECT_EQ(req.router, "dgr");
    EXPECT_EQ(req.fallback, "none");
    EXPECT_EQ(req.deadline_ms, 250.0);
    EXPECT_EQ(req.iterations, 40);
    EXPECT_TRUE(req.telemetry);
    EXPECT_FALSE(req.keep);
  }
  {
    const Result<Request> r = serve::parse_request(
        R"({"id":"e","op":"eco","session":"s1","mutation":{"generate":true,"seed":5}})");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(r.value().has_mutation);
    EXPECT_TRUE(r.value().generate_mutation);
    EXPECT_EQ(r.value().mutation_seed, 5u);
  }
  for (const char* op : {"stats", "shutdown"}) {
    const Result<Request> r =
        serve::parse_request(std::string(R"({"id":"c","op":")") + op + "\"}");
    ASSERT_TRUE(r.ok()) << op;
  }
}

TEST(ServeProtocol, MalformedAndInvalidRequestsAreTyped) {
  // Not JSON at all / not an object: kParseError.
  EXPECT_EQ(serve::parse_request("{oops").status().code(), StatusCode::kParseError);
  EXPECT_EQ(serve::parse_request("[1,2]").status().code(), StatusCode::kParseError);
  // Well-formed JSON with a type-broken field: kParseError, not a guess.
  EXPECT_EQ(serve::parse_request(R"({"id":7,"op":"ping"})").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      serve::parse_request(R"({"id":"r","op":"route","session":"s","seed":"x"})")
          .status()
          .code(),
      StatusCode::kParseError);
  // Semantically invalid requests: kInvalidArgument.
  EXPECT_EQ(serve::parse_request(R"({"id":"x","op":"warp"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id":"x"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id":"l","op":"load","session":"s"})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(
                R"({"id":"l","op":"load","session":"s","design":"d","path":"p"})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id":"r","op":"route"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id":"e","op":"eco","session":"s"})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(
                R"({"id":"r","op":"route","session":"s","deadline_ms":-1})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Numbers that do not fit the field they land in: seeds are uint64, a
  // deadline becomes a steady_clock offset. 1e309 parses as infinity.
  for (const char* field : {R"("seed":1e309)", R"("seed":18446744073709551616)",
                            R"("deadline_ms":1e309)", R"("deadline_ms":1e300)"}) {
    const std::string line =
        std::string(R"({"id":"r","op":"route","session":"s",)") + field + "}";
    EXPECT_EQ(serve::parse_request(line).status().code(), StatusCode::kInvalidArgument)
        << field;
  }
  // 50,000 levels of nesting: a typed parse error, not a stack overflow.
  const std::string deep = R"({"op":"ping","id":"x","pad":)" + std::string(50000, '[') +
                           std::string(50000, ']') + "}";
  EXPECT_EQ(serve::parse_request(deep).status().code(), StatusCode::kParseError);
  EXPECT_EQ(serve::recover_request_id(deep), "");
}

TEST(ServeProtocol, PartitionsFieldParsesAndRejectsBadValues) {
  {
    const Result<Request> r = serve::parse_request(
        R"({"id":"r","op":"route","session":"s","partitions":4})");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(r.value().has_partitions);
    EXPECT_EQ(r.value().partitions, 4);
  }
  {
    // Absent field: has_partitions stays false (server default applies).
    const Result<Request> r =
        serve::parse_request(R"({"id":"r","op":"route","session":"s"})");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().has_partitions);
  }
  // Out-of-range and non-integer values: typed kInvalidArgument.
  for (const char* bad : {"0", "-2", "65", "2.5"}) {
    const std::string line =
        std::string(R"({"id":"r","op":"route","session":"s","partitions":)") +
        bad + "}";
    EXPECT_EQ(serve::parse_request(line).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // Type-broken field: kParseError like every other field.
  EXPECT_EQ(serve::parse_request(
                R"({"id":"r","op":"route","session":"s","partitions":"four"})")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(ServeProtocol, RecoverRequestIdIsBestEffort) {
  EXPECT_EQ(serve::recover_request_id(R"({"id":"r9","op":"warp"})"), "r9");
  EXPECT_EQ(serve::recover_request_id("{truncated"), "");
  EXPECT_EQ(serve::recover_request_id(R"({"id":42})"), "");
}

TEST(ServeProtocol, MutationPayloadsParse) {
  auto parse = [](const std::string& text) {
    Value doc;
    EXPECT_TRUE(Value::parse(text, &doc));
    return serve::parse_mutation(doc);
  };
  {
    const Result<design::Mutation> m =
        parse(R"({"kind":"add_blockage","rect":[2,2,5,5],"scale":0.25})");
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    EXPECT_EQ(m.value().kind, design::MutationKind::kAddBlockage);
    EXPECT_EQ(m.value().label, "serve:add_blockage");
    EXPECT_FLOAT_EQ(m.value().blockage.scale, 0.25f);
  }
  {
    const Result<design::Mutation> m = parse(R"({"kind":"remove_nets","nets":[3,1]})");
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    EXPECT_EQ(m.value().nets.size(), 2u);
  }
  {
    const Result<design::Mutation> m = parse(
        R"({"kind":"move_pins","nets":[0],"pins":[[[1,1],[2,3]]]})");
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    ASSERT_EQ(m.value().new_pins.size(), 1u);
    EXPECT_EQ(m.value().new_pins[0].size(), 2u);
  }
  {
    const Result<design::Mutation> m = parse(
        R"({"kind":"add_nets","add":[{"name":"nx","pins":[[0,0],[4,4]],"class":1}]})");
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    ASSERT_EQ(m.value().added.size(), 1u);
    EXPECT_EQ(m.value().added[0].name, "nx");
  }
  // Hostile payloads: typed kInvalidArgument, never a crash.
  EXPECT_EQ(parse(R"({"kind":"warp"})").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse(R"({"kind":"add_blockage","rect":[5,5,2,2],"scale":0.5})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse(R"({"kind":"add_blockage","rect":[0,0,2,2],"scale":7})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse(R"({"kind":"reweight_class","class":0,"weight":0})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse(R"({"kind":"move_pins","nets":[0,1],"pins":[[[1,1]]]})")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Numbers outside the integer type they are cast to (1e309 is infinity).
  for (const char* bad :
       {R"({"kind":"remove_nets","nets":[1e309]})",
        R"({"kind":"remove_blockage","index":-1})",
        R"({"kind":"move_blockage","rect":[0,0,2,2],"scale":0.5,"index":1e309})",
        R"({"kind":"reweight_class","class":1e10,"weight":2})",
        R"({"kind":"add_nets","add":[{"name":"nx","pins":[[0,0]],"class":-1e309}]})"}) {
    EXPECT_EQ(parse(bad).status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Protocol: response envelope
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ResponseEnvelopeSerializesAndValidates) {
  {
    Response r;
    r.id = "r1";
    r.op = "route";
    r.result = Value::object();
    r.result["router"] = "dgr";
    const Value doc = expect_valid_response(serve::serialize_response(r));
    EXPECT_TRUE(response_ok(doc));
    EXPECT_EQ(doc.find("id")->as_string(), "r1");
    EXPECT_EQ(doc.find("result")->find("router")->as_string(), "dgr");
  }
  {
    const Response r = serve::error_response(
        "r2", "route", Status(StatusCode::kStageTimeout, "deadline expired"));
    const Value doc = expect_valid_response(serve::serialize_response(r));
    EXPECT_FALSE(response_ok(doc));
    EXPECT_EQ(error_code(doc), "STAGE_TIMEOUT");
  }
}

TEST(ServeProtocol, ResponseValidatorRejectsBrokenEnvelopes) {
  auto validate = [](const std::string& text) {
    Value doc;
    EXPECT_TRUE(Value::parse(text, &doc));
    return serve::validate_response_json(doc);
  };
  EXPECT_FALSE(validate(R"({"id":"r","op":"x"})"));                       // no ok
  EXPECT_FALSE(validate(R"({"id":"r","op":"x","ok":true})"));             // no result
  EXPECT_FALSE(validate(R"({"id":"r","op":"x","ok":false})"));            // no error
  EXPECT_FALSE(validate(R"({"id":"r","op":"x","ok":true,"result":{},"error":{}})"));
  EXPECT_FALSE(validate(R"({"id":"r","op":"x","ok":false,"error":{"code":"E"}})"));
  EXPECT_FALSE(validate(R"({"op":"x","ok":true,"result":{}})"));          // no id
  EXPECT_TRUE(validate(
      R"({"id":"r","op":"x","ok":false,"error":{"code":"E","message":"m"}})"));
}

// ---------------------------------------------------------------------------
// Server: request life cycle
// ---------------------------------------------------------------------------

TEST(ServeServer, PingLoadRouteEcoStatsLifecycle) {
  ServerOptions options;
  options.workers = 2;
  options.default_iterations = 20;
  Server server(options);
  server.start();

  const Value pong = expect_valid_response(server.call(R"({"id":"p","op":"ping"})"));
  ASSERT_TRUE(response_ok(pong));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());

  const design::Design d = serve_design();
  const Value loaded =
      expect_valid_response(server.call(load_line("l1", "s1", design_text(d), 4)));
  ASSERT_TRUE(response_ok(loaded)) << error_code(loaded);
  EXPECT_EQ(loaded.find("result")->find("session")->as_string(), "s1");
  EXPECT_EQ(loaded.find("result")->find("nets")->as_number(),
            static_cast<double>(d.net_count()));

  RouteSpec spec;
  spec.id = "r1";
  spec.session = "s1";
  spec.router = "dgr";
  spec.seed = 4;
  spec.telemetry = true;
  const Value routed = expect_valid_response(server.call(route_line(spec)));
  ASSERT_TRUE(response_ok(routed)) << error_code(routed);
  const Value* result = routed.find("result");
  EXPECT_EQ(result->find("router")->as_string(), "dgr");
  EXPECT_FALSE(result->find("degraded")->as_bool());
  EXPECT_GT(result->find("metrics")->find("wirelength")->as_number(), 0.0);
  ASSERT_NE(result->find("telemetry"), nullptr);
  EXPECT_GT(result->find("telemetry")->find("samples")->as_number(), 0.0);

  const Value eco = expect_valid_response(server.call(
      R"({"id":"e1","op":"eco","session":"s1","mutation":{"generate":true,"seed":7}})"));
  ASSERT_TRUE(response_ok(eco)) << error_code(eco);
  EXPECT_EQ(eco.find("result")->find("applied")->as_number(), 1.0);

  const Value stats = expect_valid_response(server.call(R"({"id":"st","op":"stats"})"));
  ASSERT_TRUE(response_ok(stats));
  const Value* acct = stats.find("result")->find("accounting");
  ASSERT_NE(acct, nullptr);
  // The published snapshot is itself self-consistent.
  EXPECT_EQ(acct->find("offered")->as_number(),
            acct->find("succeeded")->as_number() + acct->find("rejected")->as_number() +
                acct->find("failed")->as_number());

  const Value bye = expect_valid_response(server.call(R"({"id":"q","op":"shutdown"})"));
  ASSERT_TRUE(response_ok(bye));
  EXPECT_TRUE(server.stop_requested());

  server.shutdown(true);
  expect_accounting_invariant(server);
  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.offered, 6);
  EXPECT_EQ(a.succeeded, 6);
}

TEST(ServeServer, UnknownSessionRouterAndBadDesignAreTyped) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  RouteSpec ghost;
  ghost.id = "g";
  ghost.session = "ghost";
  const Value miss = expect_valid_response(server.call(route_line(ghost)));
  EXPECT_FALSE(response_ok(miss));
  EXPECT_EQ(error_code(miss), "NOT_FOUND");

  const design::Design d = serve_design();
  ASSERT_TRUE(response_ok(
      expect_valid_response(server.call(load_line("l", "s1", design_text(d))))));
  RouteSpec bad;
  bad.id = "b";
  bad.session = "s1";
  bad.router = "warp-router";
  const Value unknown = expect_valid_response(server.call(route_line(bad)));
  EXPECT_FALSE(response_ok(unknown));
  EXPECT_EQ(error_code(unknown), "INVALID_ARGUMENT");

  const Value garbage = expect_valid_response(
      server.call(load_line("m", "s2", "dgrd 1\ndesign t\ngrid -1")));
  EXPECT_FALSE(response_ok(garbage));
  EXPECT_EQ(error_code(garbage), "PARSE_ERROR");

  // A design over the configured caps is kInvalidDesign end to end.
  ServerOptions capped;
  capped.workers = 1;
  capped.design_limits.max_nets = 4;
  Server small(capped);
  small.start();
  const Value rejected = expect_valid_response(
      small.call(load_line("cap", "s1", design_text(d))));
  EXPECT_FALSE(response_ok(rejected));
  EXPECT_EQ(error_code(rejected), "INVALID_DESIGN");
  small.shutdown(true);

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeServer, PartitionsOptionRoutesThroughPartitionedEngine) {
  ServerOptions options;
  options.workers = 1;
  options.default_iterations = 20;
  Server server(options);
  server.start();

  const design::Design d = serve_design();
  ASSERT_TRUE(response_ok(
      expect_valid_response(server.call(load_line("l", "s1", design_text(d), 4)))));

  // partitions >= 2 reroutes the request through the "partitioned" engine
  // with the requested router as its region router.
  RouteSpec part;
  part.id = "p2";
  part.session = "s1";
  part.router = "cugr2-lite";
  part.seed = 11;
  part.partitions = 2;
  const Value routed = expect_valid_response(server.call(route_line(part)));
  ASSERT_TRUE(response_ok(routed)) << error_code(routed);
  const Value* result = routed.find("result");
  EXPECT_EQ(result->find("router")->as_string(), "partitioned");
  EXPECT_EQ(result->find("partitions")->as_number(), 2.0);

  // partitions == 1 forces a sequential route even if the server had a
  // partitioned default.
  RouteSpec seq;
  seq.id = "p1";
  seq.session = "s1";
  seq.router = "cugr2-lite";
  seq.partitions = 1;
  const Value plain = expect_valid_response(server.call(route_line(seq)));
  ASSERT_TRUE(response_ok(plain)) << error_code(plain);
  EXPECT_EQ(plain.find("result")->find("router")->as_string(), "cugr2-lite");
  EXPECT_EQ(plain.find("result")->find("partitions")->as_number(), 1.0);

  // An unknown router is refused before any partitioning.
  RouteSpec unknown;
  unknown.id = "pm";
  unknown.session = "s1";
  unknown.router = "maze-refine";
  unknown.partitions = 2;
  const Value refused = expect_valid_response(server.call(route_line(unknown)));
  EXPECT_FALSE(response_ok(refused));
  EXPECT_EQ(error_code(refused), "INVALID_ARGUMENT");
  EXPECT_NE(refused.find("error")->find("message")->as_string().find("unknown router"),
            std::string::npos);

  // "stats" publishes the active partition configuration.
  const Value stats = expect_valid_response(server.call(R"({"id":"st","op":"stats"})"));
  ASSERT_TRUE(response_ok(stats));
  const Value* partition = stats.find("result")->find("partition");
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->find("default_partitions")->as_number(), 1.0);
  EXPECT_GE(partition->find("halo")->as_number(), 0.0);
  EXPECT_NE(partition->find("seeding"), nullptr);
  EXPECT_NE(partition->find("region_router"), nullptr);

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeServer, QueueFullRejectionIsTyped) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(options);  // not started: admission outcomes are deterministic

  std::mutex mu;
  std::vector<std::string> rejected_lines;
  RouteSpec spec;
  spec.session = "nobody";
  spec.id = "q0";
  server.submit(route_line(spec), [](const std::string&) {});  // fills the queue
  for (int i = 1; i <= 3; ++i) {
    spec.id = "q" + std::to_string(i);
    server.submit(route_line(spec), [&](const std::string& response) {
      std::lock_guard<std::mutex> lock(mu);
      rejected_lines.push_back(response);
    });
  }
  ASSERT_EQ(rejected_lines.size(), 3u);  // rejections answer inline
  for (const std::string& line : rejected_lines) {
    const Value doc = expect_valid_response(line);
    EXPECT_FALSE(response_ok(doc));
    EXPECT_EQ(error_code(doc), "RESOURCE_EXHAUSTED");
    EXPECT_NE(doc.find("error")->find("message")->as_string().find("queue full"),
              std::string::npos);
  }

  server.start();  // drains the one queued job (NOT_FOUND -> failed)
  server.shutdown(true);
  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.offered, 4);
  EXPECT_EQ(a.rejected, 3);
  EXPECT_EQ(a.failed, 1);
  expect_accounting_invariant(server);
}

TEST(ServeServer, RateLimiterRejectsBeyondBurst) {
  ServerOptions options;
  options.workers = 1;
  options.rate_limit_per_sec = 1e-9;  // effectively no refill within the test
  options.rate_burst = 2.0;
  Server server(options);
  server.start();  // initialises the token bucket

  std::mutex mu;
  std::vector<std::string> responses(4);
  RouteSpec spec;
  spec.session = "nobody";
  for (int i = 0; i < 4; ++i) {
    spec.id = "r" + std::to_string(i);
    const int slot = i;
    server.submit(route_line(spec), [&, slot](const std::string& response) {
      std::lock_guard<std::mutex> lock(mu);
      responses[slot] = response;
    });
  }
  server.shutdown(true);

  int rate_limited = 0;
  for (const std::string& line : responses) {
    ASSERT_FALSE(line.empty());
    const Value doc = expect_valid_response(line);
    EXPECT_FALSE(response_ok(doc));
    if (error_code(doc) == "RESOURCE_EXHAUSTED") ++rate_limited;
  }
  EXPECT_EQ(rate_limited, 2);  // burst of 2 admitted, the rest refused
  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.rejected, 2);
  expect_accounting_invariant(server);
}

TEST(ServeServer, DeadlineCancelsMidTrainWithoutFallback) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  const design::Design d = serve_design(5, 16, 90);
  ASSERT_TRUE(response_ok(
      expect_valid_response(server.call(load_line("l", "s1", design_text(d))))));

  // An iteration count that cannot finish inside the deadline, and
  // degradation disabled for the request: the typed timeout must surface.
  RouteSpec spec;
  spec.id = "slow";
  spec.session = "s1";
  spec.router = "dgr";
  spec.fallback = "none";
  spec.iterations = 200000;
  spec.deadline_ms = 60.0;
  const auto start = std::chrono::steady_clock::now();
  const Value doc = expect_valid_response(server.call(route_line(spec)));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(response_ok(doc));
  EXPECT_EQ(error_code(doc), "STAGE_TIMEOUT");
  // The solver polls the deadline every iteration: the request cannot run
  // to the full iteration count (which would take tens of seconds).
  EXPECT_LT(elapsed_ms, 10000.0);

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeServer, CancellingShutdownStopsInFlightRoute) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  const design::Design d = serve_design(5, 16, 90);
  ASSERT_TRUE(response_ok(
      expect_valid_response(server.call(load_line("l", "s1", design_text(d))))));

  // No deadline and no fallback: only the cancelling shutdown can stop it.
  RouteSpec spec;
  spec.id = "endless";
  spec.session = "s1";
  spec.router = "dgr";
  spec.fallback = "none";
  spec.iterations = 200000;
  std::mutex mu;
  std::string response;
  obs::Counter& runs = obs::metrics().counter("pipeline.runs");
  const std::int64_t runs_before = runs.value();
  server.submit(route_line(spec), [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    response = line;
  });
  // Wait until the route stage has started, then let it train a while.
  while (runs.value() == runs_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  server.shutdown(/*drain=*/false);
  const double shutdown_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(shutdown_ms, 10000.0);

  ASSERT_FALSE(response.empty());
  const Value doc = expect_valid_response(response);
  EXPECT_FALSE(response_ok(doc));
  EXPECT_EQ(error_code(doc), "STAGE_TIMEOUT");
  const Value flight = server.flight().to_json("manual");
  bool found = false;
  for (const Value& r : flight.find("records")->items()) {
    if (r.find("id")->as_string() != "endless") continue;
    found = true;
    EXPECT_TRUE(r.find("cancelled")->as_bool());
  }
  EXPECT_TRUE(found) << "request 'endless' missing from flight records";
  expect_accounting_invariant(server);
}

TEST(ServeServer, QueuedPastDeadlineJobFailsTyped) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);  // not started: the job waits in the queue

  std::mutex mu;
  std::string response;
  RouteSpec spec;
  spec.id = "late";
  spec.session = "s1";
  spec.deadline_ms = 5.0;
  server.submit(route_line(spec), [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    response = line;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.start();
  server.shutdown(true);

  ASSERT_FALSE(response.empty());
  const Value doc = expect_valid_response(response);
  EXPECT_FALSE(response_ok(doc));
  EXPECT_EQ(error_code(doc), "STAGE_TIMEOUT");
  expect_accounting_invariant(server);
}

TEST(ServeServer, ShutdownCancelAnswersQueuedJobsTyped) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);  // never started: everything stays queued

  std::mutex mu;
  std::vector<std::string> responses;
  RouteSpec spec;
  spec.session = "s1";
  for (int i = 0; i < 3; ++i) {
    spec.id = "c" + std::to_string(i);
    server.submit(route_line(spec), [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(line);
    });
  }
  server.shutdown(/*drain=*/false);
  ASSERT_EQ(responses.size(), 3u);
  for (const std::string& line : responses) {
    const Value doc = expect_valid_response(line);
    EXPECT_FALSE(response_ok(doc));
    EXPECT_EQ(error_code(doc), "CANCELLED");
  }
  // Submissions after shutdown are rejected, still with a valid envelope.
  const Value late = expect_valid_response(server.call(R"({"id":"x","op":"ping"})"));
  EXPECT_FALSE(response_ok(late));
  EXPECT_EQ(error_code(late), "CANCELLED");
  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.offered, 4);
  EXPECT_EQ(a.failed, 3);
  EXPECT_EQ(a.rejected, 1);
  expect_accounting_invariant(server);
}

// ---------------------------------------------------------------------------
// Server: retry-then-degrade sequencing + attempts propagation
// ---------------------------------------------------------------------------

TEST(ServeServer, RetryThenDegradeSequencing) {
  SKIP_WITHOUT_HOOKS();
  obs::metrics().reset();
  ServerOptions options;
  options.workers = 1;
  options.max_attempts = 2;
  options.default_iterations = 20;
  options.router_options.dgr.max_rollbacks = 1;
  options.router_options.dgr.temperature_interval = 10;
  Server server(options);
  server.start();

  const design::Design d = serve_design();
  ASSERT_TRUE(response_ok(
      expect_valid_response(server.call(load_line("l", "s1", design_text(d))))));

  // Every gradient step sees a NaN: attempt 1 surfaces the divergence for a
  // reseeded retry, attempt 2 diverges again and degrades to cugr2-lite.
  ScopedPlan chaos(FaultPlan{7, {{"core.grad", 1.0, -1}}});
  RouteSpec spec;
  spec.id = "r";
  spec.session = "s1";
  spec.router = "dgr";
  spec.seed = 3;
  spec.telemetry = true;
  const Value doc = expect_valid_response(server.call(route_line(spec)));
  ASSERT_TRUE(response_ok(doc)) << error_code(doc);
  const Value* result = doc.find("result");
  EXPECT_TRUE(result->find("degraded")->as_bool());
  EXPECT_EQ(result->find("attempts")->as_number(), 2.0);
  EXPECT_EQ(result->find("router")->as_string(), "dgr");
  // The reseed is visible: final attempt trained with seed + stride.
  EXPECT_NE(result->find("seed")->as_number(), 3.0);
  EXPECT_EQ(obs::metrics().counter("serve.requests.retries").value(), 1);
  EXPECT_EQ(obs::metrics().counter("serve.requests.degraded").value(), 1);

  // Satellite: the degraded response keeps the failed attempt's record —
  // the dgr attempt with its typed divergence and rollback count (an
  // all-NaN run has no healthy steps, so no telemetry samples survive the
  // rollback rewinds), then the fallback attempt that produced the answer.
  const Value* attempts = result->find("stats")->find("route_attempts");
  ASSERT_NE(attempts, nullptr);
  ASSERT_GE(attempts->items().size(), 2u);
  const Value& failed = attempts->items().front();
  EXPECT_EQ(failed.find("router")->as_string(), "dgr");
  EXPECT_EQ(failed.find("status")->as_string(), "NUMERIC_DIVERGENCE");
  EXPECT_GE(failed.find("rollbacks")->as_number(), 1.0);
  const Value& winner = attempts->items().back();
  EXPECT_EQ(winner.find("router")->as_string(), "cugr2-lite");
  EXPECT_EQ(winner.find("status")->as_string(), "OK");

  server.shutdown(true);
  expect_accounting_invariant(server);
}

// ---------------------------------------------------------------------------
// Server: worker-count determinism
// ---------------------------------------------------------------------------

TEST(ServeServer, WorkerCountsProduceBitwiseIdenticalResponses) {
  // Six small sessions stay on the inline fast path; the last one is large
  // enough for DGR's per-path kernels to reach the pool while the other
  // sessions' routes run beside it on the remaining serve workers.
  const int kSessions = 7;
  std::vector<std::string> designs;
  for (int s = 0; s + 1 < kSessions; ++s) {
    designs.push_back(design_text(serve_design(100 + s, 8, 24)));
  }
  const design::Design large = serve_design(106, 32, 900);
  {
    pipeline::RoutingContext ctx(large);
    const std::size_t paths = ctx.forest(pipeline::RouterOptions{}.forest).paths().size();
    ASSERT_GT(paths, 2048u);  // more than one kernel grain (kParGrain in ad/ops.cpp)
  }
  designs.push_back(design_text(large));
  const char* routers[] = {"dgr", "cugr2-lite", "sproute-lite"};  // session 6 is dgr
  util::set_worker_count(4);

  auto run_at = [&](int workers) {
    ServerOptions options;
    options.workers = workers;
    options.default_iterations = 15;
    Server server(options);
    server.start();
    for (int s = 0; s < kSessions; ++s) {
      const std::string line =
          load_line("l" + std::to_string(s), "s" + std::to_string(s), designs[s], 2);
      EXPECT_TRUE(response_ok(expect_valid_response(server.call(line))));
    }
    // One route per session (a session's stream is ordered, but cross-session
    // scheduling is up to the workers): all in flight at once.
    std::mutex mu;
    std::map<std::string, std::string> by_id;
    for (int s = 0; s < kSessions; ++s) {
      RouteSpec spec;
      spec.id = "r" + std::to_string(s);
      spec.session = "s" + std::to_string(s);
      spec.router = routers[s % 3];
      spec.seed = 11 + s;
      server.submit(route_line(spec), [&mu, &by_id, spec](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        by_id[spec.id] = line;
      });
    }
    server.shutdown(true);  // drain
    EXPECT_EQ(by_id.size(), static_cast<std::size_t>(kSessions));
    return by_id;
  };

  const std::map<std::string, std::string> ref = run_at(1);
  for (const auto& [id, line] : ref) {
    EXPECT_TRUE(response_ok(expect_valid_response(line))) << id;
  }
  for (const int workers : {2, 4}) {
    const std::map<std::string, std::string> got = run_at(workers);
    ASSERT_EQ(got.size(), ref.size()) << workers;
    for (const auto& [id, line] : ref) {
      auto it = got.find(id);
      ASSERT_NE(it, got.end()) << id;
      EXPECT_EQ(it->second, line) << "workers=" << workers << " id=" << id;
    }
  }
  util::set_worker_count(0);
}

// ---------------------------------------------------------------------------
// Session cache
// ---------------------------------------------------------------------------

TEST(ServeSession, LruEvictsLeastRecentlyUsed) {
  SessionCacheOptions options;
  options.max_sessions = 2;
  SessionCache cache(options);
  cache.put("s1", serve_design(1, 6, 8), 1);
  cache.put("s2", serve_design(2, 6, 8), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GT(cache.memory_bytes(), 0u);

  cache.put("s3", serve_design(3, 6, 8), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("s1"), nullptr);  // least recently used is gone
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.names(), (std::vector<std::string>{"s3", "s2"}));

  // A find() touch protects s2; the next insert evicts s3 instead.
  ASSERT_NE(cache.find("s2"), nullptr);
  cache.put("s4", serve_design(4, 6, 8), 1);
  EXPECT_EQ(cache.find("s3"), nullptr);
  ASSERT_NE(cache.find("s2"), nullptr);
  EXPECT_EQ(cache.evictions(), 2);
}

TEST(ServeSession, MemoryBudgetEvictsDownToOneSession) {
  SessionCacheOptions options;
  options.max_sessions = 8;
  options.memory_budget_bytes = 1;  // everything is over budget
  SessionCache cache(options);
  cache.put("s1", serve_design(1, 6, 8), 1);
  EXPECT_EQ(cache.size(), 1u);  // the newest session is never evicted
  cache.put("s2", serve_design(2, 6, 8), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("s1"), nullptr);
  ASSERT_NE(cache.find("s2"), nullptr);
  EXPECT_GE(cache.evictions(), 1);
}

TEST(ServeSession, ServerEvictionYieldsNotFound) {
  ServerOptions options;
  options.workers = 1;
  options.cache.max_sessions = 2;
  Server server(options);
  server.start();
  for (int s = 1; s <= 3; ++s) {
    const std::string line = load_line("l" + std::to_string(s), "s" + std::to_string(s),
                                       design_text(serve_design(s, 6, 8)));
    ASSERT_TRUE(response_ok(expect_valid_response(server.call(line))));
  }
  RouteSpec spec;
  spec.id = "r1";
  spec.session = "s1";
  const Value evicted = expect_valid_response(server.call(route_line(spec)));
  EXPECT_FALSE(response_ok(evicted));
  EXPECT_EQ(error_code(evicted), "NOT_FOUND");
  spec.id = "r3";
  spec.session = "s3";
  spec.iterations = 10;
  EXPECT_TRUE(response_ok(expect_valid_response(server.call(route_line(spec)))));
  server.shutdown(true);
  expect_accounting_invariant(server);
}

// ---------------------------------------------------------------------------
// Chaos: the serve.* sites, two seeds each
// ---------------------------------------------------------------------------

TEST(ServeChaos, EveryServeSiteTwoSeedsTypedOrRecovered) {
  SKIP_WITHOUT_HOOKS();
  const std::string text = design_text(serve_design(9, 6, 8));
  const std::vector<std::string> sites = {"serve.parse", "serve.enqueue",
                                          "serve.dispatch", "serve.respond"};
  for (const std::uint64_t seed : {7ull, 99ull}) {
    for (const std::string& site : sites) {
      ServerOptions options;
      options.workers = 1;
      options.default_iterations = 10;
      Server server(options);
      server.start();
      ASSERT_TRUE(response_ok(
          expect_valid_response(server.call(load_line("l", "s1", text)))));

      ScopedPlan chaos(FaultPlan{seed, {{site, 1.0, 1}}});
      RouteSpec spec;
      spec.id = "r";
      spec.session = "s1";
      const std::string line = server.call(route_line(spec));
      // Whatever the fault poisoned, the answer is one valid envelope.
      const Value doc = expect_valid_response(line);
      EXPECT_GE(util::fault::fires(site), 1u) << site << " seed " << seed;
      EXPECT_FALSE(response_ok(doc)) << site;
      EXPECT_EQ(error_code(doc), "FAULT_INJECTED") << site << " seed " << seed;

      server.shutdown(true);
      expect_accounting_invariant(server);
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos: the acceptance load run. 200+ mixed requests with every serve.* and
// pipeline fault site armed: zero crashes, every answer a valid typed
// envelope, and the accounting invariant intact at the end.
// ---------------------------------------------------------------------------

TEST(ServeChaos, MixedLoadUnderFaultsKeepsAccountingInvariant) {
  SKIP_WITHOUT_HOOKS();
  obs::metrics().reset();
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.default_iterations = 8;
  options.router_options.dgr.temperature_interval = 4;
  options.cache.max_sessions = 4;
  Server server(options);
  server.start();

  std::vector<std::string> designs;
  for (int s = 0; s < 4; ++s) designs.push_back(design_text(serve_design(50 + s, 6, 10)));
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(response_ok(expect_valid_response(
        server.call(load_line("seed" + std::to_string(s), "c" + std::to_string(s),
                              designs[s])))));
  }

  ScopedPlan chaos(FaultPlan{2026,
                             {{"serve.parse", 0.02, -1},
                              {"serve.enqueue", 0.02, -1},
                              {"serve.dispatch", 0.05, -1},
                              {"serve.respond", 0.02, -1},
                              {"core.loss", 0.01, -1},
                              {"core.grad", 0.01, -1},
                              {"pipeline.alloc", 0.02, -1},
                              {"pipeline.stage", 0.02, -1},
                              {"pipeline.validate", 0.05, -1},
                              {"io.parse", 0.10, -1}}});

  const int kRequests = 220;
  std::mutex mu;
  std::vector<std::string> responses;
  std::atomic<int> answered{0};
  auto sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(line);
    answered.fetch_add(1, std::memory_order_relaxed);
  };

  const char* routers[] = {"dgr", "cugr2-lite", "sproute-lite"};
  for (int i = 0; i < kRequests; ++i) {
    const std::string session = "c" + std::to_string(i % 4);
    std::string line;
    switch (i % 10) {
      case 0:
        line = R"({"id":"ping)" + std::to_string(i) + R"(","op":"ping"})";
        break;
      case 1:
        line = R"({"id":"st)" + std::to_string(i) + R"(","op":"stats"})";
        break;
      case 2:
        line = "{broken json " + std::to_string(i);  // hostile input
        break;
      case 3:
        line = load_line("ld" + std::to_string(i), session, designs[i % 4]);
        break;
      case 4: {
        RouteSpec spec;
        spec.id = "ghost" + std::to_string(i);
        spec.session = "nosuch";
        line = route_line(spec);
        break;
      }
      case 5:
        line = R"({"id":"eco)" + std::to_string(i) + R"(","op":"eco","session":")" +
               session + R"(","mutation":{"generate":true,"seed":)" +
               std::to_string(i) + "}}";
        break;
      default: {
        RouteSpec spec;
        spec.id = "rt" + std::to_string(i);
        spec.session = session;
        spec.router = routers[i % 3];
        spec.seed = 1 + i;
        if (i % 7 == 0) spec.deadline_ms = 40.0;
        if (i % 9 == 0) spec.fallback = "none";
        line = route_line(spec);
        break;
      }
    }
    server.submit(line, sink);
  }
  server.shutdown(true);  // drain everything still queued

  // Zero crashes is implied by getting here. Every request was answered
  // exactly once, and every answer is a valid typed envelope.
  EXPECT_EQ(answered.load(), kRequests);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  int failures = 0;
  for (const std::string& line : responses) {
    const Value doc = expect_valid_response(line);
    if (!response_ok(doc)) {
      ++failures;
      EXPECT_FALSE(error_code(doc).empty()) << line;
    }
  }
  EXPECT_GT(failures, 0);  // the armed plan really did bite

  const Server::Accounting a = server.accounting();
  EXPECT_EQ(a.offered, kRequests + 4);  // + the pre-fault session loads
  expect_accounting_invariant(server);
  // The metrics registry saw the same story the counters tell.
  EXPECT_EQ(obs::metrics().counter("serve.requests.offered").value(), a.offered);
  EXPECT_EQ(obs::metrics().counter("serve.requests.succeeded").value(), a.succeeded);
  EXPECT_EQ(obs::metrics().counter("serve.requests.rejected").value(), a.rejected);
  EXPECT_EQ(obs::metrics().counter("serve.requests.failed").value(), a.failed);
}

// ---------------------------------------------------------------------------
// Hostile requests: seeded mutations of valid lines, one typed answer each
// ---------------------------------------------------------------------------

/// Bytes a mutation inserts or writes: JSON structure, number parts, an
/// escape start, NUL, a newline and bytes that are not UTF-8.
constexpr char kFuzzBytes[] = {'{', '}', '[', ']', ':', ',', '"', '\\', '0', '7', '-',
                               '+', '.', 'e', ' ', 'u', '\0', '\n', '\x7f', '\xc3', '\xff'};

/// Values spliced into a line: 50,000 levels of nesting, +-infinity, -0,
/// 2^64, a NUL escape, lone surrogates, an unterminated string and a very
/// long string (a very long id when it lands on "id").
std::vector<std::string> hostile_literals() {
  return {std::string(50000, '[') + std::string(50000, ']'),
          "1e309",
          "-1e309",
          "-0",
          "18446744073709551616",
          R"("\u0000")",
          R"("\ud800")",
          R"("\udfff")",
          R"("unterminated)",
          '"' + std::string(100000, 'i') + '"'};
}

/// One seeded edit of `line`: an inserted, deleted or replaced byte, the
/// value after a random ':' replaced by a hostile literal, or a hostile
/// literal inserted anywhere.
void mutate_request(std::string& line, util::Rng& rng,
                    const std::vector<std::string>& literals) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  auto byte = [&] { return kFuzzBytes[pick(sizeof(kFuzzBytes))]; };
  switch (pick(5)) {
    case 0:
      line.insert(pick(line.size() + 1), 1, byte());
      break;
    case 1:
      line.erase(pick(line.size()), 1);
      break;
    case 2:
      line[pick(line.size())] = byte();
      break;
    case 3: {
      const std::size_t colon = line.find(':', pick(line.size()));
      if (colon == std::string::npos) break;
      const std::size_t end = std::min(line.find_first_of(",}", colon + 1), line.size());
      line.replace(colon + 1, end - colon - 1, literals[pick(literals.size())]);
      break;
    }
    default:
      line.insert(pick(line.size() + 1), literals[pick(literals.size())]);
      break;
  }
}

TEST(ServeFuzz, MutatedRequestsGetOneTypedAnswerEach) {
  ServerOptions options;
  options.workers = 1;
  options.default_iterations = 4;
  options.default_deadline_ms = 200.0;
  Server server(options);
  server.start();

  // One valid base line per op but shutdown, over two tiny sessions. Every
  // data-plane line carries a small deadline, so a mutated number cannot
  // stall the run.
  const std::string design = design_text(serve_design(5, 6, 6));
  for (const char* session : {"f0", "f1"}) {
    ASSERT_TRUE(response_ok(expect_valid_response(
        server.call(load_line(std::string("pre-") + session, session, design)))));
  }
  Value load = Value::object();
  load["id"] = "l";
  load["op"] = "load";
  load["session"] = "f1";
  load["design"] = design;
  load["seed"] = 3;
  load["deadline_ms"] = 50;
  const std::vector<std::string> bases = {
      R"({"id":"p","op":"ping"})",
      load.dump(0),
      R"({"id":"r","op":"route","session":"f0","router":"dgr","seed":2,"deadline_ms":50})",
      R"({"id":"c","op":"route","session":"f1","router":"cugr2-lite","deadline_ms":50})",
      R"({"id":"e","op":"eco","session":"f0","deadline_ms":50,)"
      R"("mutation":{"kind":"add_blockage","rect":[1,1,3,3],"scale":0.5}})",
      R"({"id":"g","op":"eco","session":"f1","deadline_ms":50,)"
      R"("mutation":{"generate":true,"seed":4}})",
      R"({"id":"s","op":"stats"})",
      R"({"id":"m","op":"metrics","format":"prometheus"})"};
  const std::vector<std::string> literals = hostile_literals();

  int ok_lines = 0;
  int error_lines = 0;
  std::set<std::string> codes;
  constexpr int kLinesPerSeed = 300;
  for (const std::uint64_t seed : {2026ull, 2027ull}) {
    util::Rng rng(seed);
    for (int i = 0; i < kLinesPerSeed; ++i) {
      std::string line = bases[static_cast<std::size_t>(i) % bases.size()];
      const int edits = static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < edits && !line.empty(); ++k) mutate_request(line, rng, literals);
      const Value doc = expect_valid_response(server.call(line));
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " line " << i << ": "
                      << line.substr(0, 300);
        return;
      }
      if (response_ok(doc)) {
        ++ok_lines;
      } else {
        ++error_lines;
        codes.insert(error_code(doc));
      }
    }
  }
  constexpr int kLines = 2 * kLinesPerSeed;
  EXPECT_GE(ok_lines, kLines / 10);
  EXPECT_GE(error_lines, kLines / 10);
  EXPECT_EQ(codes.count("PARSE_ERROR"), 1u);
  EXPECT_EQ(codes.count("INVALID_ARGUMENT"), 1u);
  EXPECT_EQ(codes.count("INTERNAL"), 0u);

  // The published accounting, then the final one: one answer per line.
  const Value stats = expect_valid_response(server.call(R"({"id":"end","op":"stats"})"));
  const Value* acct = stats.find("result")->find("accounting");
  ASSERT_NE(acct, nullptr);
  EXPECT_EQ(acct->find("offered")->as_number(),
            acct->find("succeeded")->as_number() + acct->find("rejected")->as_number() +
                acct->find("failed")->as_number());
  server.shutdown(true);
  expect_accounting_invariant(server);
  EXPECT_EQ(server.accounting().offered, kLines + 3);  // + two preloads and the stats
}

// ---------------------------------------------------------------------------
// Live ops telemetry: request-scoped tracing, metrics export, SLO gauges,
// and the flight recorder (DESIGN.md §8/§10)
// ---------------------------------------------------------------------------

/// Turns tracing off and clears the rings even when a test fails mid-way.
struct ServeTraceGuard {
  ~ServeTraceGuard() {
    obs::set_tracing(false);
    obs::reset_trace();
  }
};

// The tentpole acceptance test: a mixed multi-session load with tracing on.
// Every span emitted under a routed request — the serve.job root on the
// worker thread and everything dispatched to pool workers under a pool.job —
// must carry that request's id in args.req, and no other request's.
TEST(ServeObs, RoutedSpansCarryTheirRequestContext) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with DGR_OBS=OFF";
  ServeTraceGuard guard;
  ServerOptions options;
  options.workers = 2;
  options.default_iterations = 10;
  Server server(options);
  server.start();

  const int kSessions = 3;
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(response_ok(expect_valid_response(
        server.call(load_line("seed" + std::to_string(s), "s" + std::to_string(s),
                              design_text(serve_design(60 + s, 8, 20)))))));
  }

  obs::reset_trace();
  obs::set_tracing(true);
  const int kRoutes = 6;
  std::mutex mu;
  std::vector<std::string> responses;
  const char* routers[] = {"dgr", "cugr2-lite", "sproute-lite"};
  for (int i = 0; i < kRoutes; ++i) {
    RouteSpec spec;
    spec.id = "req" + std::to_string(i);
    spec.session = "s" + std::to_string(i % kSessions);
    spec.router = routers[i % 3];
    spec.seed = 5 + i;
    server.submit(route_line(spec), [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(line);
    });
  }
  server.shutdown(true);
  obs::set_tracing(false);

  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRoutes));
  for (const std::string& line : responses) {
    EXPECT_TRUE(response_ok(expect_valid_response(line))) << line;
  }

  Value doc;
  std::string error;
  ASSERT_TRUE(Value::parse(obs::chrome_trace_json(), &doc, &error)) << error;
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Context-carrying parents: the per-request serve.job root plus every
  // pool.job a request's stages dispatched to worker threads.
  struct Parent {
    double tid, lo, hi;
    std::string req;
  };
  std::vector<Parent> parents;
  std::map<std::string, int> serve_jobs_by_req;
  for (const Value& ev : events->items()) {
    const Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const std::string& name = ev.find("name")->as_string();
    if (name != "serve.job" && name != "pool.job") continue;
    const Value* args = ev.find("args");
    ASSERT_NE(args, nullptr) << name << " span without request context";
    ASSERT_NE(args->find("req"), nullptr) << name;
    const double lo = ev.find("ts")->as_number();
    parents.push_back({ev.find("tid")->as_number(), lo,
                       lo + ev.find("dur")->as_number(),
                       args->find("req")->as_string()});
    if (name == "serve.job") ++serve_jobs_by_req[args->find("req")->as_string()];
  }
  // Exactly one serve.job root per routed request.
  ASSERT_EQ(serve_jobs_by_req.size(), static_cast<std::size_t>(kRoutes));
  for (int i = 0; i < kRoutes; ++i) {
    EXPECT_EQ(serve_jobs_by_req["req" + std::to_string(i)], 1) << i;
  }

  // Every other span contained in a parent on the same thread must carry
  // exactly that parent's request id. (Workers serve requests back to back
  // on one tid; the time intervals keep the attribution unambiguous.)
  std::size_t attributed = 0;
  std::map<std::string, int> pipeline_runs_by_req;
  for (const Value& ev : events->items()) {
    const Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const std::string& name = ev.find("name")->as_string();
    if (name == "serve.job" || name == "pool.job") continue;
    const double tid = ev.find("tid")->as_number();
    const double lo = ev.find("ts")->as_number();
    const double hi = lo + ev.find("dur")->as_number();
    for (const Parent& p : parents) {
      if (tid != p.tid || lo < p.lo || hi > p.hi) continue;
      const Value* args = ev.find("args");
      ASSERT_NE(args, nullptr) << name << " under request " << p.req;
      ASSERT_NE(args->find("req"), nullptr) << name;
      EXPECT_EQ(args->find("req")->as_string(), p.req) << name;
      ++attributed;
      if (name == "pipeline.run") {
        ++pipeline_runs_by_req[args->find("req")->as_string()];
      }
    }
  }
  EXPECT_GT(attributed, 0u);
  // Every request really did drive the pipeline under its own context.
  for (int i = 0; i < kRoutes; ++i) {
    EXPECT_EQ(pipeline_runs_by_req["req" + std::to_string(i)], 1) << i;
  }
}

TEST(ServeObs, StatsExposesTraceAndFlightState) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  ASSERT_TRUE(response_ok(expect_valid_response(server.call(R"({"id":"p","op":"ping"})"))));

  const Value stats = expect_valid_response(server.call(R"({"id":"st","op":"stats"})"));
  ASSERT_TRUE(response_ok(stats));
  const Value* trace = stats.find("result")->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_FALSE(trace->find("enabled")->as_bool());
  EXPECT_GE(trace->find("dropped_events")->as_number(), 0.0);
  EXPECT_EQ(trace->find("ring_capacity")->as_number(),
            static_cast<double>(obs::trace_ring_capacity()));
  const Value* flight = stats.find("result")->find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->find("capacity")->as_number(), 256.0);  // default, pow2
  EXPECT_GE(flight->find("occupancy")->as_number(), 1.0);   // the ping
  EXPECT_GE(flight->find("recorded")->as_number(), flight->find("occupancy")->as_number());
  EXPECT_EQ(flight->find("dumps")->as_number(), 0.0);  // no flight_path set

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeObs, MetricsOpServesJsonAndPrometheus) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  const Value json_doc =
      expect_valid_response(server.call(R"({"id":"m1","op":"metrics"})"));
  ASSERT_TRUE(response_ok(json_doc));
  EXPECT_EQ(json_doc.find("result")->find("format")->as_string(), "json");
  ASSERT_NE(json_doc.find("result")->find("snapshot"), nullptr);
  ASSERT_NE(json_doc.find("result")->find("snapshot")->find("counters"), nullptr);

  const Value prom = expect_valid_response(
      server.call(R"({"id":"m2","op":"metrics","format":"prometheus"})"));
  ASSERT_TRUE(response_ok(prom));
  const std::string& text = prom.find("result")->find("text")->as_string();
  EXPECT_NE(text.find("# TYPE dgr_serve_requests_offered counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dgr_serve_slo_availability gauge"), std::string::npos);
  EXPECT_NE(text.find("dgr_serve_latency_ms_bucket{le=\"+Inf\"}"), std::string::npos);

  const Value bad = expect_valid_response(
      server.call(R"({"id":"m3","op":"metrics","format":"xml"})"));
  EXPECT_FALSE(response_ok(bad));
  EXPECT_EQ(error_code(bad), "INVALID_ARGUMENT");

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeObs, PrometheusExportByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> designs;
  for (int s = 0; s < 4; ++s) designs.push_back(design_text(serve_design(80 + s, 8, 20)));

  // Timing-derived series are carved out; everything left must be a pure
  // function of the (deterministic) workload.
  obs::PrometheusOptions po;
  po.exclude_prefixes = {"serve.latency_ms", "serve.slo.", "serve.queue_depth"};

  auto run_at = [&](int workers) {
    obs::metrics().reset();
    ServerOptions options;
    options.workers = workers;
    options.default_iterations = 12;
    Server server(options);
    server.start();
    for (int s = 0; s < 4; ++s) {
      const std::string id = "l" + std::to_string(s);
      EXPECT_TRUE(response_ok(expect_valid_response(
          server.call(load_line(id, "s" + std::to_string(s), designs[s], 2)))));
    }
    const char* routers[] = {"dgr", "cugr2-lite"};
    for (int s = 0; s < 4; ++s) {
      RouteSpec spec;
      spec.id = "r" + std::to_string(s);
      spec.session = "s" + std::to_string(s);
      spec.router = routers[s % 2];
      spec.seed = 21 + s;
      EXPECT_TRUE(response_ok(expect_valid_response(server.call(route_line(spec)))));
    }
    server.shutdown(true);
    return obs::prometheus_text(po);
  };

  run_at(1);  // warm-up: registers every metric name the workload touches
  const std::string ref = run_at(1);
  EXPECT_NE(ref.find("dgr_serve_requests_succeeded 8"), std::string::npos) << ref;
  for (const int workers : {2, 4}) {
    EXPECT_EQ(run_at(workers), ref) << "workers=" << workers;
  }
}

TEST(ServeObs, SnapshotParsesMidLoadAndIsDeterministicAfterDrain) {
  std::vector<std::string> designs;
  for (int s = 0; s < 3; ++s) designs.push_back(design_text(serve_design(90 + s, 8, 16)));

  obs::PrometheusOptions po;
  po.exclude_prefixes = {"serve.latency_ms", "serve.slo.", "serve.queue_depth"};

  auto run_at = [&](int workers) {
    obs::metrics().reset();
    ServerOptions options;
    options.workers = workers;
    options.queue_capacity = 64;
    options.default_iterations = 10;
    Server server(options);
    server.start();
    for (int s = 0; s < 3; ++s) {
      EXPECT_TRUE(response_ok(expect_valid_response(server.call(
          load_line("l" + std::to_string(s), "s" + std::to_string(s), designs[s])))));
    }
    std::mutex mu;
    std::vector<std::string> responses;
    for (int i = 0; i < 12; ++i) {
      RouteSpec spec;
      spec.id = "r" + std::to_string(i);
      spec.session = "s" + std::to_string(i % 3);
      spec.seed = 31 + i;
      server.submit(route_line(spec), [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(line);
      });
    }
    // Continuous export runs concurrently with the load: snapshots taken
    // mid-flight must always be complete, well-formed documents.
    for (int probe = 0; probe < 5; ++probe) {
      Value doc;
      std::string error;
      EXPECT_TRUE(Value::parse(obs::metrics().snapshot_json(), &doc, &error)) << error;
      EXPECT_NE(doc.find("counters"), nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    server.shutdown(true);
    EXPECT_EQ(responses.size(), 12u);
    for (const std::string& line : responses) {
      EXPECT_TRUE(response_ok(expect_valid_response(line)));
    }
    return obs::render_prometheus(obs::metrics().snapshot(), po);
  };

  run_at(1);  // warm-up registers the full name set
  const std::string ref = run_at(1);
  for (const int workers : {2, 4}) {
    EXPECT_EQ(run_at(workers), ref) << "workers=" << workers;
  }
}

TEST(ServeObs, ExporterRewritesArtifactsWhileRunning) {
  const std::string snap_path = "serve_exporter_test_snapshot.json";
  const std::string prom_path = "serve_exporter_test_metrics.prom";
  std::remove(snap_path.c_str());
  std::remove(prom_path.c_str());

  ServerOptions options;
  options.workers = 1;
  options.metrics_interval_s = 0.02;
  options.metrics_snapshot_path = snap_path;
  options.prometheus_path = prom_path;
  Server server(options);
  server.start();
  ASSERT_TRUE(response_ok(expect_valid_response(server.call(R"({"id":"p","op":"ping"})"))));

  // Both artifacts appear (and keep being rewritten) while the daemon is
  // still up — not just at shutdown.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto wait_for = [&](const std::string& path) {
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(path);
      if (in) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  ASSERT_TRUE(wait_for(snap_path)) << snap_path;
  ASSERT_TRUE(wait_for(prom_path)) << prom_path;

  {
    std::ifstream in(snap_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Value doc;
    std::string error;
    EXPECT_TRUE(Value::parse(buffer.str(), &doc, &error)) << error;
    EXPECT_NE(doc.find("counters"), nullptr);
    // The exporter refreshed the SLO gauges on its tick.
    EXPECT_NE(doc.find("gauges")->find("serve.slo.availability"), nullptr);
  }
  {
    std::ifstream in(prom_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("# TYPE dgr_serve_requests_offered counter"),
              std::string::npos);
  }

  server.shutdown(true);
  std::remove(snap_path.c_str());
  std::remove(prom_path.c_str());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(ServeFlight, RingWrapsKeepsNewestAndValidates) {
  serve::FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    serve::FlightRecord rec;
    rec.set_id("r" + std::to_string(i));
    rec.set_op("ping");
    rec.set_session("s");
    rec.latency_ms = 0.5 * i;
    rec.status = static_cast<int>(StatusCode::kOk);
    recorder.record(rec);
  }
  EXPECT_EQ(recorder.total(), 6u);
  EXPECT_EQ(recorder.size(), 4u);

  const Value doc = recorder.to_json("test");
  std::string error;
  EXPECT_TRUE(serve::validate_flight_json(doc, &error)) << error;
  EXPECT_EQ(doc.find("recorded")->as_number(), 6.0);
  EXPECT_EQ(doc.find("dropped")->as_number(), 2.0);  // r0, r1 overwritten
  const Value* records = doc.find("records");
  ASSERT_EQ(records->items().size(), 4u);
  EXPECT_EQ(records->items().front().find("id")->as_string(), "r2");
  EXPECT_EQ(records->items().back().find("id")->as_string(), "r5");
  EXPECT_EQ(records->items().back().find("status")->as_string(), "OK");
}

TEST(ServeFlight, FieldSettersTruncateAndJoinSites) {
  serve::FlightRecord rec;
  rec.set_id(std::string(100, 'x'));  // id[] is 48 bytes incl. NUL
  EXPECT_EQ(std::string(rec.id).size(), sizeof(rec.id) - 1);
  rec.set_fault_sites({"serve.parse", "serve.handler"});
  EXPECT_EQ(std::string(rec.fault_sites), "serve.parse,serve.handler");
  EXPECT_EQ(rec.fault_fires, 2u);
}

TEST(ServeFlight, ValidatorRejectsBrokenDocuments) {
  serve::FlightRecorder recorder(2);
  serve::FlightRecord rec;
  rec.set_id("r1");
  rec.set_op("route");
  recorder.record(rec);
  std::string error;

  {
    Value doc = recorder.to_json("internal");
    ASSERT_TRUE(serve::validate_flight_json(doc, &error)) << error;
    doc["reason"] = "";
    EXPECT_FALSE(serve::validate_flight_json(doc, &error));
  }
  {
    Value doc = recorder.to_json("internal");
    doc["records"] = Value::array();
    Value broken = Value::object();
    broken["id"] = "";  // empty id must be rejected
    doc["records"].push_back(std::move(broken));
    EXPECT_FALSE(serve::validate_flight_json(doc, &error));
  }
  {
    Value doc = recorder.to_json("internal");
    doc["capacity"] = 0;
    EXPECT_FALSE(serve::validate_flight_json(doc, &error));
  }
}

// The chaos leg of the tentpole: a fault-forced INTERNAL response must dump
// a flight artifact that validates against dgr-flight-v1 and pins the blame
// on the fired site.
TEST(ServeChaos, HandlerCrashDumpsValidatedFlightArtifact) {
  SKIP_WITHOUT_HOOKS();
  const std::string path = "serve_flight_test_artifact.json";
  std::remove(path.c_str());

  ServerOptions options;
  options.workers = 1;
  options.default_iterations = 10;
  options.flight_path = path;
  options.flight_capacity = 8;
  Server server(options);
  server.start();
  ASSERT_TRUE(response_ok(expect_valid_response(
      server.call(load_line("l", "s1", design_text(serve_design(9, 6, 8)))))));

  ScopedPlan chaos(FaultPlan{3, {{"serve.handler", 1.0, 1}}});
  RouteSpec spec;
  spec.id = "boom";
  spec.session = "s1";
  const Value doc = expect_valid_response(server.call(route_line(spec)));
  EXPECT_FALSE(response_ok(doc));
  EXPECT_EQ(error_code(doc), "INTERNAL");
  EXPECT_GE(util::fault::fires("serve.handler"), 1u);

  auto read_artifact = [&](const std::string& expected_reason) {
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << "missing flight artifact " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Value flight;
    std::string error;
    EXPECT_TRUE(Value::parse(buffer.str(), &flight, &error)) << error;
    EXPECT_TRUE(serve::validate_flight_json(flight, &error)) << error;
    EXPECT_EQ(flight.find("reason")->as_string(), expected_reason);
    return flight;
  };

  // The INTERNAL response triggered an immediate dump.
  const Value flight = read_artifact("internal");
  bool found = false;
  for (const Value& r : flight.find("records")->items()) {
    if (r.find("id")->as_string() != "boom") continue;
    found = true;
    EXPECT_EQ(r.find("op")->as_string(), "route");
    EXPECT_EQ(r.find("session")->as_string(), "s1");
    EXPECT_EQ(r.find("status")->as_string(), "INTERNAL");
    EXPECT_FALSE(r.find("cancelled")->as_bool());
    bool site_fired = false;
    for (const Value& s : r.find("fault_sites")->items()) {
      if (s.as_string() == "serve.handler") site_fired = true;
    }
    EXPECT_TRUE(site_fired) << "serve.handler missing from fault_sites";
  }
  EXPECT_TRUE(found) << "request 'boom' missing from flight records";
  EXPECT_GE(server.flight().dumps(), 1u);

  // Shutdown rewrites the artifact with its own reason.
  server.shutdown(true);
  read_artifact("shutdown");
  expect_accounting_invariant(server);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

TEST(ServeTransport, StdioAnswersAndStopsOnShutdownOp) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();

  std::istringstream in(
      "{\"id\":\"p\",\"op\":\"ping\"}\n"
      "not json\n"
      "\n"
      "{\"id\":\"q\",\"op\":\"shutdown\"}\n"
      "{\"id\":\"never\",\"op\":\"ping\"}\n");
  std::ostringstream out;
  const std::size_t submitted = serve::run_stdio(server, in, out);
  EXPECT_EQ(submitted, 3u);  // blank line skipped; loop stops after shutdown
  EXPECT_TRUE(server.stop_requested());

  std::istringstream lines(out.str());
  std::string line;
  std::vector<Value> docs;
  while (std::getline(lines, line)) docs.push_back(expect_valid_response(line));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_TRUE(response_ok(docs[0]));
  EXPECT_FALSE(response_ok(docs[1]));
  EXPECT_EQ(error_code(docs[1]), "PARSE_ERROR");
  EXPECT_TRUE(response_ok(docs[2]));

  server.shutdown(true);
  expect_accounting_invariant(server);
}

TEST(ServeTransport, SignalStopsReadLoop) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  serve::set_signal_received(15);  // as if SIGTERM arrived
  std::istringstream in("{\"id\":\"p\",\"op\":\"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(serve::run_stdio(server, in, out), 0u);
  serve::set_signal_received(0);
  server.shutdown(true);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ServeTransport, UnixSocketRoundTrip) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  serve::UnixSocketListener listener(server);
  const std::string path =
      "/tmp/dgr_serve_test_" + std::to_string(::getpid()) + ".sock";
  const Status bound = listener.listen(path);
  ASSERT_TRUE(bound.ok()) << bound.to_string();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, path.size());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  const std::string request = "{\"id\":\"p\",\"op\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char chunk[512];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const Value doc = expect_valid_response(reply.substr(0, reply.find('\n')));
  EXPECT_TRUE(response_ok(doc));
  EXPECT_EQ(doc.find("id")->as_string(), "p");

  listener.stop();
  server.shutdown(true);
  expect_accounting_invariant(server);
}
#endif

}  // namespace
}  // namespace dgr
