// Fixed-partition thread pool for the embarrassingly parallel per-fault loops.
//
// Design constraints, in order:
//
//  1. **Determinism.** Work is always split by *index*, never by arrival
//     order: parallelFor(n, fn) carves [0, n) into at most threadCount()
//     contiguous chunks, each chunk is executed by exactly one thread, and
//     the caller decides what to do with the indexed results. There is no
//     work stealing and no shared accumulator inside the pool, so a loop
//     whose body writes only results[i] produces bit-identical output for
//     every thread count — callers then reduce in index order (see
//     DiagnosisPipeline::evaluate). Per-index seeds/partition state derive
//     from the index, exactly as in the serial code.
//  2. **Thread count 1 is the serial code path.** A pool with one thread
//     spawns no workers; parallelFor degenerates to the plain `for` loop on
//     the calling thread and submit() runs inline. The parallel build is
//     therefore a strict superset of the serial one, not a replacement.
//  3. **Nested use never deadlocks.** A parallelFor issued from inside a
//     pool task runs inline on that worker (detected via a thread_local
//     flag). This is what lets evaluateSocDr parallelize across cores while
//     each core's DiagnosisPipeline::evaluate still calls parallelFor.
//  4. **Exceptions propagate.** The lowest-index chunk's exception is
//     rethrown on the calling thread (lowest-index so the error a caller
//     sees does not depend on thread scheduling); submit() carries
//     exceptions through its std::future. A throwing chunk never strands the
//     batch: completion is decremented by RAII, a queueing failure falls back
//     to inline execution, and an exception that escapes a raw task is caught
//     in the worker (keeping it alive for join) and rethrown on the next
//     submitting thread instead of std::terminate'ing the process.
//
// Thread count resolution: an explicit constructor argument wins; 0 defers
// to the SCANDIAG_THREADS environment variable; unset/0/garbage falls back
// to std::thread::hardware_concurrency(). globalPool() is the process-wide
// instance the experiment drivers use — and buildSocFromModules, which
// generates an SOC's distinct core netlists on it, one index slot per
// module name; setGlobalThreadCount() rebuilds it
// (call it from startup code — CLI flag, bench setup, test fixtures — not
// while work is in flight).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace scandiag {

/// Most threads (pool lanes, serve handlers) or per-thread resources (serve
/// simulators) any component takes. A larger count is a misparsed or negative
/// value, not a real request.
inline constexpr std::size_t kMaxThreadCount = 4096;

/// SCANDIAG_THREADS if set to a positive integer, else hardware_concurrency
/// (never 0).
std::size_t defaultThreadCount();

/// True while the current thread is executing a pool task or parallelFor
/// chunk; nested parallel constructs run inline instead of re-entering the
/// queue.
bool insideParallelRegion();

class ThreadPool {
 public:
  /// numThreads == 0 resolves via defaultThreadCount().
  explicit ThreadPool(std::size_t numThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread). Always >= 1.
  std::size_t threadCount() const { return workers_.size() + 1; }

  /// Runs body(begin, end) over a fixed contiguous partition of [0, n) into
  /// at most threadCount() chunks. Blocks until every chunk finished; the
  /// calling thread executes chunk 0. Rethrows the lowest-index chunk's
  /// exception. Serial (inline) when threadCount() == 1, n <= 1, or called
  /// from inside another parallel region.
  void parallelForRange(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& body);

  /// Element-wise convenience wrapper: fn(i) for each i in [0, n).
  template <typename Fn>
  void parallelFor(std::size_t n, Fn&& fn) {
    parallelForRange(n, [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// Schedules f() on a worker (inline when threadCount() == 1 or when
  /// called from inside a parallel region); the future carries the result
  /// or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

 private:
  void post(std::function<void()> task);
  void workerLoop(std::size_t lane);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::function<void()>> queue_;
  bool stopping_ = false;
  /// First exception that escaped a task on a worker (instead of killing the
  /// worker via std::terminate); rethrown by the next parallelForRange.
  std::exception_ptr escapedError_;
};

/// Process-wide pool shared by the experiment drivers. Built on first use
/// with defaultThreadCount() threads.
ThreadPool& globalPool();

/// Replaces the global pool with an `n`-thread one (0 = defaultThreadCount()).
/// Must not race with work submitted to the old pool.
void setGlobalThreadCount(std::size_t n);

}  // namespace scandiag
