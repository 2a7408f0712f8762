// Index-keyed thread pool for the embarrassingly parallel per-item loops.
//
// Design constraints, in order:
//
//  1. **Determinism.** Work is always keyed by *index*, never by arrival
//     order, and the caller decides what to do with the indexed results.
//     parallelForRange(n, body) carves [0, n) into at most threadCount()
//     fixed contiguous chunks, each executed by exactly one thread, so a
//     chunk can keep per-chunk scratch. In parallelFor(n, fn) lane c runs
//     index c and then each lane claims the next unclaimed index from a
//     shared counter, in increasing order, so a few uneven items (an SOC's
//     cores) do not queue behind one fixed chunk. There is no shared accumulator inside the pool, so a loop
//     whose body writes only results[i] produces bit-identical output for
//     every thread count — callers then reduce in index order (see
//     DiagnosisPipeline::evaluate). Per-index seeds/partition state derive
//     from the index, exactly as in the serial code.
//  2. **Thread count 1 is the serial code path.** A pool with one thread
//     spawns no workers; both loops degenerate to the plain `for` loop on
//     the calling thread and submit() runs inline. The parallel build is
//     therefore a strict superset of the serial one, not a replacement.
//  3. **Nested use never deadlocks.** A parallel loop issued from inside a
//     pool task runs inline on that worker (detected via a thread_local
//     flag). This is what lets evaluateSocDr parallelize across cores while
//     each core's DiagnosisPipeline::evaluate still calls parallelForRange.
//  4. **Exceptions propagate.** The error a serial loop would hit first is
//     rethrown on the calling thread, so it does not depend on thread
//     scheduling: the lowest-index chunk's for parallelForRange, the lowest
//     throwing index's for parallelFor (which stops claiming after the first
//     throw; every lower index was claimed earlier and has run). submit()
//     carries exceptions through its std::future. A throwing lane never
//     strands the batch: completion is decremented by RAII, a queueing
//     failure falls back to inline execution, and an exception that escapes
//     a raw task is caught in the worker (keeping it alive for join) and
//     rethrown on the next submitting thread instead of std::terminate'ing
//     the process.
//
// Thread count resolution: an explicit constructor argument wins; 0 defers
// to the SCANDIAG_THREADS environment variable; unset/0/garbage falls back
// to std::thread::hardware_concurrency(). globalPool() is the process-wide
// instance the experiment drivers use — and buildSocFromModules, which
// generates an SOC's distinct core netlists on it, one claimed index per
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
  /// from inside another parallel region. For loops whose chunks keep
  /// per-chunk scratch.
  void parallelForRange(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& body);

  /// fn(i) for each i in [0, n), on lanes = min(threadCount(), n) lanes:
  /// lane c runs index c, then each lane claims the next unclaimed index, in
  /// increasing order. Items of uneven cost therefore spread over the lanes
  /// instead of queueing behind one fixed chunk. Which lane runs a claimed
  /// index is unspecified, so fn(i) must write only its own slot. Blocks
  /// until every started index finished. Once an index throws, no lane
  /// claims another, and the lowest throwing index's exception is rethrown:
  /// claims are monotone, so every lower index has run, and that is the
  /// error a serial loop would hit first. Serial (inline) when
  /// threadCount() == 1, n <= 1, or called from inside another parallel
  /// region.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

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
  /// Runs laneBody(c) for each lane c in [0, lanes): lane 0 on the calling
  /// thread, the others on workers. Blocks until all finished, then
  /// rethrows the lowest lane's exception.
  void runOnLanes(std::size_t lanes, const std::function<void(std::size_t)>& laneBody);
  /// Rethrows (and clears) an exception that escaped a raw task on a worker.
  void rethrowEscapedError();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::function<void()>> queue_;
  bool stopping_ = false;
  /// First exception that escaped a task on a worker (instead of killing the
  /// worker via std::terminate); rethrown by the next parallel loop.
  std::exception_ptr escapedError_;
};

/// Process-wide pool shared by the experiment drivers. Built on first use
/// with defaultThreadCount() threads.
ThreadPool& globalPool();

/// Replaces the global pool with an `n`-thread one (0 = defaultThreadCount()).
/// Must not race with work submitted to the old pool.
void setGlobalThreadCount(std::size_t n);

}  // namespace scandiag
