#pragma once
// In-memory span log of the traced pass. The suite records a span around
// each public call it makes into the router library; the library itself is
// not instrumented for this. Stage times a call reports about itself
// (RouterStats stages, EcoStats) are added as child spans flagged
// `program`, laid end to end inside the call that reported them.
//
// A span's self time is its duration minus the durations of its children.
// The children of one span never overlap (each traced op calls the library
// from one thread), so self time is what that layer's own code spent.
// Spans named "bench.*" only group the calls of one op (a pass, a design's
// flow, an ECO cycle); their self time is the suite's own glue, which must
// stay under 5% of the span. Written out at the end as Chrome trace_event
// JSON.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dgr::bench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string id;  ///< design or request the span worked on
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    bool program = false;  ///< a stage time the library reported, not a bench timer
  };

  double now_us() const { return at_us(std::chrono::steady_clock::now()); }
  /// `t` as microseconds since the log was created.
  double at_us(std::chrono::steady_clock::time_point t) const;

  /// Opens a span as a child of the innermost open span; returns its index.
  int open(std::string name, std::string id = {});
  void close(int index);
  /// Adds a finished span with explicit times (async requests, stage times
  /// a library call reported).
  int add(std::string name, std::string id, double start_us, double end_us, int parent,
          bool program);
  /// Adds `stages` (name, seconds) as program-reported children of `parent`,
  /// end to end from the parent's start.
  void add_stages(int parent, const std::vector<std::pair<std::string, double>>& stages);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (us) summed by span name over every span below a span named
  /// `root` (the roots included).
  std::map<std::string, double> self_us_by_name(const std::string& root) const;
  /// Total duration (us) of the spans named `root`.
  double total_us(const std::string& root) const;
  /// Largest self time of a "bench.*" grouping span as a share of its
  /// duration: how far its children fall short of summing to it.
  double worst_child_gap() const;

  std::string chrome_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when constructed with a null log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, std::string id = {})
      : log_(log), index_(log != nullptr ? log->open(std::move(name), std::move(id)) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace dgr::bench
