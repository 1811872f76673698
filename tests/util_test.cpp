#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "util/deadline.hpp"
#include "util/log.hpp"
#include "util/memprobe.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dgr::util {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng rng(21);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(31);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GumbelMeanIsEulerMascheroni) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gumbel();
  EXPECT_NEAR(sum / n, 0.5772, 0.02);
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 200; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(5), p2(5);
  Rng a = p1.fork(99), b = p2.fork(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(41);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);  // same multiset
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelRuntime::for_each(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, 64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  ParallelRuntime::for_each(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, DeterministicAcrossWorkerCounts) {
  // Each index owns its output slot -> result independent of thread count.
  const std::size_t n = 50000;
  auto run = [&](std::size_t workers) {
    set_worker_count(workers);
    std::vector<double> out(n);
    ParallelRuntime::for_blocked(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i] = std::sin(static_cast<double>(i));
    });
    set_worker_count(0);
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(2), run(8));
}

TEST(ParallelFor, SmallRangeRunsInlineOnCallingThread) {
  // Fast path: a range that fits in one grain must not wake the pool.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(100);
  ParallelRuntime::for_each(
      0, 100, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); }, /*grain=*/1024);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, SingleWorkerRunsInlineOnCallingThread) {
  set_worker_count(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  ParallelRuntime::for_blocked(0, 100000, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) off_thread.store(true);
  }, /*grain=*/64);
  set_worker_count(0);
  EXPECT_FALSE(off_thread.load());
}

TEST(ParallelFor, GrainZeroIsTreatedAsOne) {
  const std::size_t n = 3000;
  std::vector<std::atomic<int>> hits(n);
  ParallelRuntime::for_each(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  std::atomic<std::size_t> covered{0};
  ParallelRuntime::for_blocked(0, n, [&](std::size_t lo, std::size_t hi) {
    covered.fetch_add(hi - lo);
  }, /*grain=*/0);
  EXPECT_EQ(covered.load(), n);
}

TEST(ParallelFor, RangeSmallerThanGrainExecutesExactlyOnce) {
  std::vector<std::atomic<int>> hits(10);
  ParallelRuntime::for_blocked(0, 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, /*grain=*/4096);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, BackToBackSubmissionsFromMainThread) {
  // Hammers the pool's start/finish handshake: no deadlock, exactly-once
  // execution for every submission, across several worker counts.
  for (const std::size_t workers : {2u, 4u, 0u}) {
    set_worker_count(workers);
    const std::size_t n = 4096;
    std::vector<std::atomic<int>> hits(n);
    for (int round = 0; round < 100; ++round) {
      ParallelRuntime::for_each(
          0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/16);
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 100) << i;
  }
  set_worker_count(0);
}

TEST(ParallelFor, ConcurrentSubmittersRunExactlyOnce) {
  // Several client threads (the serve daemon's routing workers) submit at
  // once: one of them holds the pool, the others run inline. Every job must
  // still execute each index exactly once, with fused stage gates intact.
  constexpr int kRounds = 1000;
  constexpr std::size_t n = 4096;
  for (const std::size_t workers : {2u, 4u}) {
    set_worker_count(workers);
    for (const int clients : {2, 4}) {
      std::atomic<int> bad_gate{0};
      std::vector<std::vector<std::atomic<int>>> each(clients), s1(clients), s2(clients);
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        each[c] = std::vector<std::atomic<int>>(n);
        s1[c] = std::vector<std::atomic<int>>(n);
        s2[c] = std::vector<std::atomic<int>>(n);
        threads.emplace_back([&, c] {
          auto& hits = each[c];
          auto& a = s1[c];
          auto& b = s2[c];
          for (int round = 0; round < kRounds; ++round) {
            ParallelRuntime::for_each(
                0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/16);
            ParallelRuntime::fused(
                stage_blocked(0, n, 16,
                              [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) a[i].fetch_add(1);
                              }),
                stage_blocked(0, n, 16, [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    // Reads a mirrored index: only valid past the stage gate.
                    if (a[n - 1 - i].load() != round + 1) bad_gate.fetch_add(1);
                    b[i].fetch_add(1);
                  }
                }));
          }
        });
      }
      for (auto& t : threads) t.join();
      EXPECT_EQ(bad_gate.load(), 0) << "workers=" << workers << " clients=" << clients;
      for (int c = 0; c < clients; ++c) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(each[c][i].load(), kRounds) << "client=" << c << " i=" << i;
          ASSERT_EQ(s1[c][i].load(), kRounds) << "client=" << c << " i=" << i;
          ASSERT_EQ(s2[c][i].load(), kRounds) << "client=" << c << " i=" << i;
        }
      }
    }
  }
  set_worker_count(0);
}

TEST(ParallelFor, NestedSubmissionRunsInlineOnStageThread) {
  // A stage function that submits work finds the pool busy with its own job,
  // so the inner loop runs inline on the thread executing that stage.
  set_worker_count(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 512;
  std::vector<std::vector<std::thread::id>> ran_on(kOuter,
                                                   std::vector<std::thread::id>(kInner));
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  std::vector<std::thread::id> outer_thread(kOuter);
  ParallelRuntime::for_each(
      0, kOuter,
      [&](std::size_t r) {
        outer_thread[r] = std::this_thread::get_id();
        ParallelRuntime::for_each(
            0, kInner,
            [&](std::size_t i) {
              ran_on[r][i] = std::this_thread::get_id();
              ++hits[r][i];
            },
            /*grain=*/8);
      },
      /*grain=*/1);
  set_worker_count(0);
  for (std::size_t r = 0; r < kOuter; ++r) {
    for (std::size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(hits[r][i], 1) << r << "/" << i;
      ASSERT_EQ(ran_on[r][i], outer_thread[r]) << r << "/" << i;
    }
  }
}

TEST(InlineScope, JobsSubmittedInsideRunOnTheCallingThread) {
  set_worker_count(4);
  constexpr std::size_t n = 20000;
  std::vector<std::thread::id> ran_on(n);
  std::vector<int> hits(n, 0);
  {
    const InlineScope scope;
    ParallelRuntime::for_each(
        0, n,
        [&](std::size_t i) {
          ran_on[i] = std::this_thread::get_id();
          ++hits[i];
        },
        /*grain=*/8);
    ParallelRuntime::for_blocked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        },
        /*grain=*/16);
    ParallelRuntime::fused(stage_blocked(0, n, 32, [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) {
                               if (ran_on[i] != std::this_thread::get_id()) hits[i] = -100;
                               ++hits[i];
                             }
                           }),
                           stage_blocked(0, n, 32, [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                           }));
  }
  set_worker_count(0);
  const std::thread::id me = std::this_thread::get_id();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 4) << i;
    ASSERT_EQ(ran_on[i], me) << i;
  }
}

TEST(InlineScope, NestsAndRestores) {
  EXPECT_FALSE(detail::t_run_inline);
  {
    const InlineScope off(false);
    EXPECT_FALSE(detail::t_run_inline);
  }
  {
    const InlineScope outer;
    EXPECT_TRUE(detail::t_run_inline);
    {
      // An inactive scope inside an active one keeps it active.
      const InlineScope inner(false);
      EXPECT_TRUE(detail::t_run_inline);
      const InlineScope innermost;
      EXPECT_TRUE(detail::t_run_inline);
    }
    EXPECT_TRUE(detail::t_run_inline);
    // The scope is per thread: another thread submits as usual.
    bool other = true;
    std::thread([&] { other = detail::t_run_inline; }).join();
    EXPECT_FALSE(other);
  }
  EXPECT_FALSE(detail::t_run_inline);
}

TEST(ParallelFor, BlockedChunksPartitionRange) {
  std::atomic<std::size_t> total{0};
  ParallelRuntime::for_blocked(10, 1010, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo);
  }, 16);
  EXPECT_EQ(total.load(), 1000u);
}

TEST(FusedStages, LaterStagesSeeEarlierStageWrites) {
  // Stage 2 reads stage 1's output at a *different* index (the mirror), so
  // it only works if the inter-stage barrier publishes all of stage 1.
  for (const std::size_t workers : {1u, 2u, 4u, 0u}) {
    set_worker_count(workers);
    const std::size_t n = 30000;
    std::vector<double> a(n, 0.0), b(n, 0.0);
    ParallelRuntime::fused(
        stage_blocked(0, n, 64,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) {
                          a[i] = static_cast<double>(i);
                        }
                      }),
        stage_blocked(0, n, 128, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) b[i] = a[i] + a[n - 1 - i];
        }));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(b[i], static_cast<double>(n - 1)) << "workers=" << workers << " i=" << i;
    }
  }
  set_worker_count(0);
}

TEST(FusedStages, ExactlyOnceExecutionPerStage) {
  for (const std::size_t workers : {1u, 3u, 0u}) {
    set_worker_count(workers);
    const std::size_t n = 12345;
    std::vector<std::atomic<int>> s1(n), s2(n), s3(n);
    ParallelRuntime::fused(
        stage_blocked(0, n, 7,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) s1[i].fetch_add(1);
                      }),
        stage_blocked(0, n, 4096,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) s2[i].fetch_add(1);
                      }),
        stage_blocked(0, n, 0,  // grain 0 must behave as 1
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) s3[i].fetch_add(1);
                      }));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(s1[i].load(), 1);
      ASSERT_EQ(s2[i].load(), 1);
      ASSERT_EQ(s3[i].load(), 1);
    }
  }
  set_worker_count(0);
}

TEST(FusedStages, EmptyAndMixedSizeStages) {
  // Empty stages must not deadlock the barrier; a tiny stage fused with a
  // large one still executes exactly once each.
  set_worker_count(4);
  std::atomic<int> tiny{0};
  std::atomic<std::size_t> covered{0};
  ParallelRuntime::fused(
      stage_blocked(5, 5, 16, [&](std::size_t, std::size_t) { tiny.fetch_add(1000); }),
      stage_blocked(0, 1, 16, [&](std::size_t, std::size_t) { tiny.fetch_add(1); }),
      stage_blocked(0, 100000, 256, [&](std::size_t lo, std::size_t hi) {
        covered.fetch_add(hi - lo);
      }));
  set_worker_count(0);
  EXPECT_EQ(tiny.load(), 1);          // empty stage never ran
  EXPECT_EQ(covered.load(), 100000u);  // large stage fully covered
}

TEST(FusedStages, DeterministicBlockReduction) {
  // The canonical ownership-based reduction: fixed blocks -> owned partial
  // slots -> ordered combine. Bitwise identical for every worker count.
  const std::size_t n = 100000;
  const std::size_t block = 512;
  const std::size_t blocks = (n + block - 1) / block;
  auto run = [&](std::size_t workers) {
    set_worker_count(workers);
    std::vector<double> x(n), partials(blocks, 0.0);
    ParallelRuntime::fused(
        stage_blocked(0, n, 4096,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) {
                          x[i] = std::sin(static_cast<double>(i)) * 1e-3;
                        }
                      }),
        stage_blocked(0, blocks, 1, [&](std::size_t blo, std::size_t bhi) {
          for (std::size_t b = blo; b < bhi; ++b) {
            double acc = 0.0;
            const std::size_t hi = std::min(n, (b + 1) * block);
            for (std::size_t i = b * block; i < hi; ++i) acc += x[i];
            partials[b] = acc;
          }
        }));
    set_worker_count(0);
    double total = 0.0;
    for (const double p : partials) total += p;
    return total;
  };
  const double t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(4));
  EXPECT_EQ(t1, run(0));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
  EXPECT_LT(t.millis(), 5000.0);
}

TEST(Deadline, ExpiresOnItsTimeOrItsCancelFlag) {
  EXPECT_FALSE(Deadline().expired());  // default: never
  const auto now = Deadline::Clock::now();
  EXPECT_TRUE(Deadline(now).expired());
  EXPECT_FALSE(Deadline(now + std::chrono::hours(1)).expired());
  std::atomic<bool> cancel{false};
  const Deadline no_limit(Deadline::Clock::time_point::max(), &cancel);
  const Deadline copy = no_limit;  // copies read the same flag
  EXPECT_FALSE(no_limit.expired());
  cancel.store(true);
  EXPECT_TRUE(no_limit.expired());
  EXPECT_TRUE(copy.expired());
}

TEST(StopWatch, AccumulatesWindows) {
  StopWatch sw;
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.stop();
  const double first = sw.total_seconds();
  EXPECT_GT(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_DOUBLE_EQ(sw.total_seconds(), first);  // stopped: no accumulation
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.stop();
  EXPECT_GT(sw.total_seconds(), first);
}

TEST(MemProbe, ReportsPlausibleRss) {
  const std::size_t rss = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
  EXPECT_GT(rss, 1024u * 1024u);  // a running process uses > 1 MiB
  EXPECT_GE(peak, rss / 2);       // peak can't be (much) below current
}

TEST(Log, SilencerRestoresLevel) {
  set_log_level(LogLevel::kWarn);
  {
    LogSilencer quiet;
    EXPECT_EQ(log_level(), LogLevel::kOff);
  }
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  set_log_level(LogLevel::kInfo);
}

}  // namespace
}  // namespace dgr::util
