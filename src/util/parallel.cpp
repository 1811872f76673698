#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace dgr::util {
namespace {

std::atomic<std::size_t> g_override{0};

std::size_t default_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : hc;
}

// A persistent pool executing multi-stage jobs. Creating threads per call
// would dominate the cost of the small kernels DGR runs thousands of times,
// and even a condition-variable round trip per kernel is measurable — so a
// job carries an ARRAY of stages and workers wake once for the whole chain.
//
// Two design decisions keep thread scheduling off the submitter's critical
// path:
//
//  * Progress is tracked per CHUNK, not per participant: stage s is complete
//    when all of its chunks have retired, and whoever observes that (the
//    caller participates) moves straight on to stage s+1 — or, after the
//    last stage, returns. Nobody ever waits for a *thread* to arrive, so a
//    worker the OS has not scheduled simply contributes nothing instead of
//    adding a context-switch round trip to every stage boundary.
//
//  * One job at a time, in one pool-owned descriptor. A worker that wakes
//    late simply processes whatever the current epoch is (claiming whatever
//    chunks remain, often none) and checks out; the next submission waits
//    for those check-outs before overwriting the descriptor (a finished
//    job's gates are all open, so a late pass is pure bookkeeping), and the
//    epoch-stamped pending_ counter keeps the accounting straight when a
//    worker sleeps through a job entirely.
//
// On an oversubscribed machine (worker_count > cores) the caller therefore
// drains whole jobs alone at memory speed while workers tick along in the
// background; on real multicore the workers wake once per job and claim
// chunks exactly as before. Results are bitwise identical either way: chunk
// boundaries derive from (begin, end, grain) only, and every output element
// is owned by the chunk that writes it.
//
// Any thread may submit. A submission that finds the pool busy — another
// thread's job, or a nested call from inside a stage function — is refused
// by try_run and runs inline on its own thread, which the determinism
// contract makes bitwise identical to a pooled run.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  // Runs the job on `workers` participants unless another submission holds
  // the pool, in which case nothing runs and the caller goes inline.
  bool try_run(const detail::RawStage* stages, std::size_t count, std::size_t workers) {
    if (busy_.exchange(true)) return false;
    run(stages, count, workers);
    busy_.store(false);
    return true;
  }

 private:
  Pool() = default;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      ++epoch_;
      cv_start_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void run(const detail::RawStage* stages, std::size_t count, std::size_t workers) {
    std::unique_lock<std::mutex> lock(mu_);
    // Reuse gate: workers that woke late for the previous job may still be
    // reading the descriptor. They had the whole previous job's duration to
    // check out, so this wait is almost always a no-op.
    cv_done_.wait(lock, [&] { return refs_ == 0; });
    ensure_threads_locked(workers - 1);
    count_ = count;
    for (std::size_t s = 0; s < count; ++s) {
      job_[s] = stages[s];
      chunks_[s] = stages[s].begin < stages[s].end
                       ? (stages[s].end - stages[s].begin + stages[s].grain - 1) /
                             stages[s].grain
                       : 0;
      cursor_[s].store(stages[s].begin, std::memory_order_relaxed);
      done_[s].store(0, std::memory_order_relaxed);
    }
    // Span emission is decided per JOB at submit time: a worker waking late
    // for a job submitted before tracing was enabled must not leak a
    // "pool.job" span into the traced window (and vice versa).
    traced_ = obs::tracing_enabled();
    // Request context rides the job the same way: captured once at submit so
    // worker-side spans (pool.job and anything inside the stage bodies)
    // carry the submitting request's identity, not a stale one.
    ctx_ = obs::current_trace_context();
    // Exactly `workers` participants MAY run this job: the caller plus pool
    // threads [0, workers-1). Extra pool threads left over from a larger
    // previous worker_count wake, see they are not enrolled, and go back to
    // sleep. pending_ is epoch-stamped: a worker that slept through this job
    // entirely (the next submission overwrote the epoch first) never
    // decrements a stale counter.
    active_threads_ = workers - 1;
    pending_ = static_cast<int>(active_threads_);
    ++epoch_;
    if (traced_) {
      // Traced jobs wake every enrolled worker so the Chrome timeline shows
      // one "pool.job" span per participant (the drain below guarantees they
      // all ran before the submission returns).
      cv_start_.notify_all();
    } else {
      // Never wake more workers than spare hardware threads: on an
      // oversubscribed machine (worker_count > cores) an extra runnable
      // worker cannot make CPU-bound chunks finish sooner — it only adds
      // context switches to the caller's critical path. The caller drains
      // whatever un-woken workers would have claimed; results are bitwise
      // identical because chunk boundaries do not depend on who executes
      // them. Workers left asleep simply join a later job.
      static const std::size_t spare = [] {
        const unsigned hc = std::thread::hardware_concurrency();
        return hc > 1 ? static_cast<std::size_t>(hc - 1) : std::size_t{0};
      }();
      if (spare >= active_threads_) {
        cv_start_.notify_all();
      } else {
        for (std::size_t i = 0; i < spare; ++i) cv_start_.notify_one();
      }
    }
    lock.unlock();

    work_stages();  // caller participates; returns once every chunk retired

    // With tracing on, drain every enrolled worker before returning so each
    // participant's "pool.job" span lands inside the caller's enclosing span
    // (and the Chrome timeline never shows job-N worker spans overlapping
    // job N+1). Tracing only observes — results are identical either way.
    if (traced_) {
      lock.lock();
      cv_done_.wait(lock, [&] { return pending_ == 0; });
    }
  }

  void ensure_threads_locked(std::size_t n) {
    while (threads_.size() < n) {
      // Threads are created while mu_ is held: the new thread blocks on the
      // lock until job setup completes, then (epoch already bumped) joins the
      // job it was enrolled in, or sleeps if the epoch has not moved yet.
      threads_.emplace_back([this, my_epoch = epoch_,
                             my_index = threads_.size()]() mutable {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          cv_start_.wait(lock, [&] { return epoch_ != my_epoch || stopping_; });
          if (stopping_) return;
          my_epoch = epoch_;
          if (my_index >= active_threads_) continue;
          ++refs_;
          lock.unlock();
          work_stages();
          lock.lock();
          --refs_;
          if (my_epoch == epoch_) --pending_;
          cv_done_.notify_one();
        }
      });
    }
  }

  // Executes every stage of the current job, claiming chunks from the
  // per-stage cursor. Stage gate: each retired chunk does a release
  // fetch_add on done_[s]; moving on requires an acquire load observing the
  // full count, which makes all stage-s writes visible to stage-s+1 readers
  // (and to the caller when it returns after the final gate). A participant
  // that claims nothing passes each gate as soon as the chunks retire —
  // late-waking workers cost bookkeeping, never a stage delay.
  void work_stages() {
    // One span per participant per traced job: the Chrome timeline shows
    // every worker's share of each submission (determinism is unaffected —
    // the tracer only observes).
    if (traced_) {
      // Inherit the submitter's request context so this participant's
      // pool.job span — and any span emitted inside the stage bodies — is
      // attributed to the request that submitted the job.
      obs::TraceContextScope ctx_scope(ctx_);
      DGR_TRACE_SCOPE("pool.job");
      execute_stages();
    } else {
      execute_stages();
    }
  }

  void execute_stages() {
    for (std::size_t s = 0; s < count_; ++s) {
      const detail::RawStage st = job_[s];
      const std::size_t n_chunks = chunks_[s];
      for (;;) {
        const std::size_t lo =
            cursor_[s].fetch_add(st.grain, std::memory_order_relaxed);
        if (lo >= st.end) break;
        const std::size_t hi = lo + st.grain < st.end ? lo + st.grain : st.end;
        st.fn(st.ctx, lo, hi);
        done_[s].fetch_add(1, std::memory_order_release);
      }
      // Brief spin, then yield: on oversubscribed machines the peer holding
      // the last unretired chunk needs the core we are holding, so with a
      // single hardware thread spinning at all is counterproductive.
      static const int spin_limit = std::thread::hardware_concurrency() > 1 ? 64 : 0;
      int spins = 0;
      while (done_[s].load(std::memory_order_acquire) != n_chunks) {
        if (++spins > spin_limit) std::this_thread::yield();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;

  std::atomic<bool> busy_{false};  // held by the one submitter inside run()

  // The job descriptor. Written under mu_ (exclusivity enforced by the refs_
  // reuse gate), then read-only during the job's lifetime.
  detail::RawStage job_[detail::kMaxStages];
  std::size_t chunks_[detail::kMaxStages] = {};
  std::size_t count_ = 0;
  bool traced_ = false;
  obs::TraceContext ctx_;  // submitter's request context, captured per job
  int refs_ = 0;  // workers currently executing the job (guarded by mu_)
  std::atomic<std::size_t> cursor_[detail::kMaxStages] = {};
  std::atomic<std::size_t> done_[detail::kMaxStages] = {};
  std::size_t active_threads_ = 0;
  int pending_ = 0;  // enrolled workers yet to process the CURRENT epoch
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
};

}  // namespace

std::size_t worker_count() {
  const std::size_t o = g_override.load(std::memory_order_relaxed);
  return o != 0 ? o : default_workers();
}

void set_worker_count(std::size_t n) { g_override.store(n, std::memory_order_relaxed); }

namespace detail {

bool pool_try_run(const RawStage* stages, std::size_t count) {
  const std::size_t workers = worker_count();
  return workers > 1 && Pool::instance().try_run(stages, count, workers);
}

}  // namespace detail
}  // namespace dgr::util
