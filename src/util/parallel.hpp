#pragma once
// Deterministic data-parallel runtime (dgr::util::ParallelRuntime).
//
// The paper runs DGR's tensor kernels on a GPU via PyTorch; this CPU
// substrate parallelises the same kernels across a persistent thread pool.
// All reductions are structured so results are bitwise independent of the
// thread count (each output element is owned by exactly one task).
//
// The front-end is header-only and fully templated: loop bodies are inlined
// into the per-chunk trampoline instead of being erased behind std::function,
// so a parallel_for over a tight numeric loop compiles to the same code as
// the loop itself. Dispatch costs are paid only when they buy something:
//
//  * fast path — a range that fits in one grain, or worker_count() == 1,
//    runs inline on the calling thread with no pool wakeup at all;
//  * one job at a time — a submission that finds the pool busy (another
//    thread's job, or a nested call from inside a stage function) runs
//    inline on its own thread instead of queueing behind it;
//  * fused multi-stage tasks — a chain of dependent kernels (e.g. the DGR
//    softmax -> expectation -> scatter pipeline) is submitted as one job:
//    one condition-variable wakeup covers every stage, with per-stage
//    chunk-retirement gates between consecutive stages instead of a
//    sleep/wake round trip per kernel. Gates count completed CHUNKS, not
//    arrived threads, so a worker the OS never scheduled cannot delay a
//    stage boundary — the caller participates and can drain a whole job
//    alone at memory speed on an oversubscribed machine.
//
// Determinism contract: a stage's function receives ownership of the index
// range it is handed; it may only write state owned by those indices. Chunk
// boundaries are derived from (begin, end, grain) only — never from the
// thread count — so any reduction expressed as "fixed blocks -> owned
// partial slots -> ordered combine" is bitwise thread-count invariant.

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace dgr::util {

/// Number of worker threads the pool uses (hardware concurrency by default).
std::size_t worker_count();

/// Overrides the worker count (0 restores the default). Mainly for tests
/// that check determinism across thread counts.
void set_worker_count(std::size_t n);

namespace detail {

/// Type-erased-but-cheap stage descriptor handed to the pool: a raw function
/// pointer plus context, not a std::function (no allocation, trivially
/// copyable, and the trampoline instantiation inlines the loop body).
struct RawStage {
  void (*fn)(void* ctx, std::size_t lo, std::size_t hi) = nullptr;
  void* ctx = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
};

/// Most stages one submission may carry (the longest chain today has 3).
inline constexpr std::size_t kMaxStages = 8;

/// Runs `count` stages on the persistent pool with ONE wakeup: participants
/// claim chunks of stage s from a shared cursor, then pass a chunk-retirement
/// gate before stage s+1 begins. Returns true once every chunk of every stage
/// has completed (late-waking workers may still be checking out; the next
/// submission waits for them before reusing the job descriptor). Returns
/// false without running anything when worker_count() <= 1 or the pool is
/// already running another job. Defined in parallel.cpp. Precondition:
/// 1 <= count <= kMaxStages, every grain >= 1.
bool pool_try_run(const RawStage* stages, std::size_t count);

/// Runs every stage over its whole range on the calling thread. Bitwise
/// identical to a pooled run: chunk boundaries never change results.
inline void run_inline(const RawStage* stages, std::size_t count) {
  for (std::size_t s = 0; s < count; ++s) {
    if (stages[s].begin < stages[s].end) {
      stages[s].fn(stages[s].ctx, stages[s].begin, stages[s].end);
    }
  }
}

/// Pooled when the work spans more than one grain and the pool is free;
/// inline otherwise.
inline void dispatch(const RawStage* stages, std::size_t count, bool small) {
  if (small || !pool_try_run(stages, count)) run_inline(stages, count);
}

template <class F>
void blocked_trampoline(void* ctx, std::size_t lo, std::size_t hi) {
  (*static_cast<F*>(ctx))(lo, hi);
}

template <class F>
void indexed_trampoline(void* ctx, std::size_t lo, std::size_t hi) {
  F& fn = *static_cast<F*>(ctx);
  for (std::size_t i = lo; i < hi; ++i) fn(i);
}

}  // namespace detail

/// A blocked stage of a fused task: fn(lo, hi) over chunks of [begin, end).
/// Created via stage_blocked(); the functor lives inside the descriptor, so
/// temporaries passed to ParallelRuntime::fused stay alive for the call.
template <class F>
struct BlockedStage {
  std::size_t begin;
  std::size_t end;
  std::size_t grain;
  F fn;
};

template <class F>
BlockedStage<std::decay_t<F>> stage_blocked(std::size_t begin, std::size_t end,
                                            std::size_t grain, F&& fn) {
  return {begin, end, grain == 0 ? std::size_t{1} : grain, std::forward<F>(fn)};
}

/// The templated runtime. Stateless facade over the persistent pool; all
/// methods are static so call sites read ParallelRuntime::for_blocked(...).
class ParallelRuntime {
 public:
  /// Runs fn(i) for i in [begin, end). Blocks until done. fn must not throw.
  /// Each index is executed exactly once; distinct indices may run
  /// concurrently, so fn may only write to state owned by index i.
  template <class F>
  static void for_each(std::size_t begin, std::size_t end, F&& fn,
                       std::size_t grain = 1024) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const detail::RawStage stage{
        &detail::indexed_trampoline<std::remove_reference_t<F>>,
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))), begin, end, grain};
    detail::dispatch(&stage, 1, end - begin <= grain);
  }

  /// Block variant: fn(lo, hi) on contiguous chunks covering [begin, end).
  /// Lower call overhead for tight numeric loops.
  template <class F>
  static void for_blocked(std::size_t begin, std::size_t end, F&& fn,
                          std::size_t grain = 4096) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const detail::RawStage stage{
        &detail::blocked_trampoline<std::remove_reference_t<F>>,
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))), begin, end, grain};
    detail::dispatch(&stage, 1, end - begin <= grain);
  }

  /// Fused submission: runs the stages in order with a barrier between
  /// consecutive stages, paying a single pool wakeup for the whole chain.
  /// Stage k+1 may read anything stage k wrote (the barrier publishes it).
  /// Falls back to an inline serial sweep when the pool would not help
  /// (single worker, every stage fits in its own grain, or the pool is busy)
  /// — bitwise identical results either way thanks to the ownership contract.
  template <class... S>
  static void fused(BlockedStage<S>... stages) {
    constexpr std::size_t kCount = sizeof...(S);
    static_assert(kCount <= detail::kMaxStages, "too many stages for one fused job");
    if constexpr (kCount > 0) {
      const detail::RawStage raw[kCount] = {detail::RawStage{
          &detail::blocked_trampoline<S>,
          const_cast<void*>(static_cast<const void*>(std::addressof(stages.fn))),
          stages.begin, stages.end, stages.grain}...};
      detail::dispatch(raw, kCount, ((stages.end - stages.begin <= stages.grain) && ...));
    }
  }
};

}  // namespace dgr::util
