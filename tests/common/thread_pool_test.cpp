#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace scandiag {
namespace {

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitManyTasksAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHandlesZeroAndFewerItemsThanThreads) {
  ThreadPool pool(8);
  pool.parallelFor(0, [](std::size_t) { FAIL() << "body called for n == 0"; });
  std::vector<std::atomic<int>> hits(3);
  pool.parallelFor(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForRangeChunksAreContiguousAndFixed) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallelForRange(1000, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    ranges.push_back({begin, end});
  });
  // Sorted by begin, the chunks must exactly tile [0, 1000) — the fixed
  // partition that makes indexed results scheduling-independent.
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 1000u);
  for (std::size_t c = 1; c < ranges.size(); ++c) {
    EXPECT_EQ(ranges[c].first, ranges[c - 1].second);
  }
}

TEST(ThreadPool, ParallelForPropagatesLowestIndexException) {
  ThreadPool pool(4);
  // Both chunk 0 (caller) and a worker chunk throw; the lowest-index chunk's
  // exception must win so the observed error is scheduling-independent.
  try {
    pool.parallelFor(1000, [](std::size_t i) {
      if (i == 10) throw std::runtime_error("low");
      if (i == 990) throw std::invalid_argument("high");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  }
}

TEST(ThreadPool, ParallelForRunsTrailingIndicesConcurrently) {
  // Indices 4 and 5 each release the other and then wait for it. Fixed
  // contiguous chunks put both on one lane ([4, 5] of 6 on 4 lanes), so one
  // would time out; lanes that claim indices run them at the same time.
  ThreadPool pool(4);
  std::promise<void> released[2];
  std::shared_future<void> seen[2] = {released[0].get_future().share(),
                                      released[1].get_future().share()};
  std::atomic<bool> metPartner[2] = {false, false};
  pool.parallelFor(6, [&](std::size_t i) {
    if (i < 4) return;
    const std::size_t self = i - 4;
    released[self].set_value();
    metPartner[self] = seen[1 - self].wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  });
  EXPECT_TRUE(metPartner[0].load()) << "index 4 never saw index 5 run";
  EXPECT_TRUE(metPartner[1].load()) << "index 5 never saw index 4 run";
}

TEST(ThreadPool, ParallelForRethrowsSerialFirstErrorWhenClaiming) {
  // Index 5 throws at once, index 1 only after a pause, so index 5's error is
  // recorded first in time. The caller must still see index 1's: the error a
  // serial loop would hit first.
  ThreadPool pool(4);
  try {
    pool.parallelFor(8, [](std::size_t i) {
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        throw std::runtime_error("slow index 1");
      }
      if (i == 5) throw std::runtime_error("fast index 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slow index 1");
  }
}

TEST(ThreadPool, OneThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.parallelFor(seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
  auto future = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(future.get(), caller);
}

TEST(ThreadPool, MultiThreadUsesWorkers) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  pool.parallelFor(10'000, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GT(threads.size(), 1u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  const std::size_t outer = 16, inner = 100;
  std::vector<std::vector<int>> sums(outer);
  pool.parallelFor(outer, [&](std::size_t o) {
    EXPECT_TRUE(insideParallelRegion());
    const std::thread::id worker = std::this_thread::get_id();
    std::vector<int>& out = sums[o];
    out.assign(inner, 0);
    // The nested loop must complete on this worker thread (inline), never
    // re-enter the queue — re-entering could deadlock with every worker
    // blocked waiting for the others' nested loops.
    pool.parallelFor(inner, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), worker);
      out[i] = static_cast<int>(o * inner + i);
    });
  });
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t i = 0; i < inner; ++i) {
      EXPECT_EQ(sums[o][i], static_cast<int>(o * inner + i));
    }
  }
}

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  const char* saved = std::getenv("SCANDIAG_THREADS");
  const std::string restore = saved ? saved : "";

  ::setenv("SCANDIAG_THREADS", "3", 1);
  EXPECT_EQ(defaultThreadCount(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 3u);

  // Unset / zero / garbage fall back to hardware concurrency (>= 1).
  ::setenv("SCANDIAG_THREADS", "0", 1);
  EXPECT_GE(defaultThreadCount(), 1u);
  ::setenv("SCANDIAG_THREADS", "banana", 1);
  EXPECT_GE(defaultThreadCount(), 1u);
  ::unsetenv("SCANDIAG_THREADS");
  EXPECT_GE(defaultThreadCount(), 1u);

  if (saved) ::setenv("SCANDIAG_THREADS", restore.c_str(), 1);
}

TEST(ThreadPool, GlobalPoolThreadCountIsConfigurable) {
  setGlobalThreadCount(2);
  EXPECT_EQ(globalPool().threadCount(), 2u);
  setGlobalThreadCount(1);
  EXPECT_EQ(globalPool().threadCount(), 1u);
  setGlobalThreadCount(0);  // back to the environment default
  EXPECT_EQ(globalPool().threadCount(), defaultThreadCount());
}

TEST(ThreadPool, ThrowingChunkDoesNotStrandBatchOrKillWorkers) {
  ThreadPool pool(4);
  // Only a high index throws, so the failing chunk runs on a *worker*, not
  // the calling thread. The batch must still complete (RAII decrement), the
  // exception must reach the caller, and every worker must stay alive.
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallelFor(1000,
                                  [](std::size_t i) {
                                    if (i == 999) throw std::runtime_error("worker chunk");
                                  }),
                 std::runtime_error);
    // The pool is fully usable after the failed batch — a dead or wedged
    // worker would hang or under-cover this follow-up batch.
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, EveryChunkThrowingStillRethrowsLowestIndex) {
  ThreadPool pool(8);
  try {
    pool.parallelFor(800, [](std::size_t i) {
      throw std::out_of_range("chunk of " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "chunk of 0");
  }
  auto future = pool.submit([] { return 1; });
  EXPECT_EQ(future.get(), 1);
}

TEST(ThreadPool, SubmitExceptionLeavesWorkersServing) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    auto bad = pool.submit([]() -> int { throw std::runtime_error("task"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    auto good = pool.submit([i] { return i; });
    EXPECT_EQ(good.get(), i);
  }
}

TEST(ThreadPool, DestructionAfterFailedBatchJoinsCleanly) {
  // A pool whose last act was a throwing batch must still join all workers
  // (no std::terminate from an exception escaping a worker thread).
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(100, [](std::size_t i) { if (i % 7 == 0) throw std::runtime_error("x"); }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForSumMatchesSerial) {
  const std::size_t n = 4096;
  std::vector<std::uint64_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  const std::uint64_t expected = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> squaredSlots(n);
    pool.parallelFor(n, [&](std::size_t i) { squaredSlots[i] = values[i]; });
    // Ordered reduction: identical result regardless of thread count.
    EXPECT_EQ(std::accumulate(squaredSlots.begin(), squaredSlots.end(), std::uint64_t{0}),
              expected)
        << threads << " threads";
  }
}

TEST(ThreadPoolSaturation, ManyProducersPostingAtCapacityAllComplete) {
  // `scandiag serve` posts every request's compute to the pool from handler
  // threads, so N external producers hammering submit() concurrently is the
  // production shape. Every future must resolve — a lost wakeup or a queue
  // race would deadlock the whole service under load.
  ThreadPool pool(4);
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kTasksEach = 200;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &total, p] {
      std::vector<std::future<std::size_t>> futures;
      futures.reserve(kTasksEach);
      for (std::size_t t = 0; t < kTasksEach; ++t) {
        futures.push_back(pool.submit([p, t] { return p * kTasksEach + t; }));
      }
      std::uint64_t mine = 0;
      for (auto& f : futures) mine += f.get();
      total.fetch_add(mine);
    });
  }
  for (std::thread& t : producers) t.join();
  const std::uint64_t n = kProducers * kTasksEach;
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolSaturation, ProducersMixingFailuresDoNotWedgeThePool) {
  // Saturating producers where half the tasks throw: exceptions must ride
  // each future without killing workers or stranding the other producers.
  ThreadPool pool(2);
  constexpr std::size_t kProducers = 6;
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ok, &failed] {
      for (int t = 0; t < 100; ++t) {
        auto f = pool.submit([t]() -> int {
          if (t % 2 == 0) throw std::runtime_error("even task");
          return t;
        });
        try {
          f.get();
          ok.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ok.load(), kProducers * 50);
  EXPECT_EQ(failed.load(), kProducers * 50);
  auto alive = pool.submit([] { return 7; });
  EXPECT_EQ(alive.get(), 7);
}

TEST(ThreadPoolSaturation, ChunkExceptionPriorityHoldsUnderConcurrentSubmits) {
  // The lowest-index-chunk rethrow contract must not depend on the pool
  // being otherwise idle: background producers keep the queue hot while a
  // parallelFor with several throwing chunks runs. The caller must still see
  // chunk 0's exception, every round.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> noise;
  for (int p = 0; p < 4; ++p) {
    noise.emplace_back([&pool, &stop] {
      while (!stop.load()) {
        auto f = pool.submit([] { return 1; });
        f.get();
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallelFor(400, [](std::size_t i) {
        if (i % 100 == 0) throw std::out_of_range("chunk at " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "chunk at 0") << "round " << round;
    }
  }
  stop.store(true);
  for (std::thread& t : noise) t.join();
}

}  // namespace
}  // namespace scandiag
