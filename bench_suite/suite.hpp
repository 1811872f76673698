#pragma once
// Shared types of the benchmark suite (see README.md in this directory).
//
// Each workload runs in a child process of the suite (the hang guard in
// suite.cpp) and returns a RunResult: end-to-end metrics measured with the
// traced pass off, per-layer metrics from the traced pass (traced runs
// only), op counts, and every correctness check that failed.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "design/design.hpp"
#include "spans.hpp"

namespace dgr::bench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;   ///< measured time budget of the run
  bool smoke = false;      ///< one design, round or short phase: every path once
  SpanLog* spans = nullptr;  ///< non-null in traced runs
  int serve_workers = 2;
  double serve_rps = 60.0;  ///< open-loop arrival rate of the serve workload
};

struct RunResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  /// Untraced latency samples behind op_p50_ms and op_tail_ms, in ms.
  std::vector<double> op_ms;
  std::vector<std::string> failed_checks;

  /// Records `what` as a failed correctness check unless `ok`.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_checks.empty(); }
};

/// Op accounting read by the hang guard: an op is attempted when it starts
/// and answered when it ends, ok or not. A killed child's unanswered ops
/// count as failed.
struct OpCounters {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> answered{0};
  std::atomic<std::int64_t> failed{0};
};
OpCounters& ops();
inline void op_started() { ops().attempted.fetch_add(1, std::memory_order_relaxed); }
inline void op_failed() { ops().failed.fetch_add(1, std::memory_order_relaxed); }
inline void op_finished(bool ok) {
  if (!ok) op_failed();
  ops().answered.fetch_add(1, std::memory_order_relaxed);
}

RunResult run_congested_flow(const RunConfig& config);
RunResult run_clean_ladder(const RunConfig& config);
RunResult run_eco_stream(const RunConfig& config);
RunResult run_serve_open_loop(const RunConfig& config);

// ---- helpers shared by the workloads ---------------------------------------

/// The .dgrd text of a generated design: the only form the program is given.
std::string design_text(const design::Design& design);
/// Parses .dgrd text; a parse failure is a failed check (and an empty design).
design::Design parse_design(const std::string& text, RunResult& result);

/// Process peak resident set size in MB.
double peak_rss_mb();
/// Starts a fresh peak-RSS window after a workload's set-up repetitions:
/// hands freed heap pages back to the kernel and resets its high-water mark,
/// so peak_rss_mb covers the measured work rather than what the extra
/// set-ups left fragmented. Without /proc/self/clear_refs the window stays
/// the whole run.
void reset_peak_rss();

/// Sets `<span>_pct` per-layer metrics: each listed span name's self time
/// under the spans named `root`, as a share of their total duration.
void set_self_shares(RunResult& result, const SpanLog& log, const std::string& root,
                     const std::vector<std::string>& names);

/// Sets trace.overhead_pct and trace.child_gap_pct, and fails the run when
/// a grouping span's children miss its duration by more than 5%.
void set_trace_checks(RunResult& result, const SpanLog& log, double untraced_op,
                      double traced_op);

}  // namespace dgr::bench
