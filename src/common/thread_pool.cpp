#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

thread_local bool tlsInsideParallelRegion = false;

/// RAII guard marking the current thread as being inside pool-managed work.
struct RegionGuard {
  bool previous;
  RegionGuard() : previous(tlsInsideParallelRegion) { tlsInsideParallelRegion = true; }
  ~RegionGuard() { tlsInsideParallelRegion = previous; }
};

/// Runs `task` on the calling thread as pool work. Nested inline execution is
/// already inside some lane's WorkerScope; only top-level serial execution
/// charges lane 0.
void runInline(const std::function<void()>& task) {
  const bool nested = tlsInsideParallelRegion;
  RegionGuard guard;
  if (nested) {
    task();
    return;
  }
  obs::WorkerScope busy(0);
  task();
}

}  // namespace

std::size_t defaultThreadCount() {
  if (const char* env = std::getenv("SCANDIAG_THREADS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool insideParallelRegion() { return tlsInsideParallelRegion; }

ThreadPool::ThreadPool(std::size_t numThreads) {
  const std::size_t lanes = numThreads == 0 ? defaultThreadCount() : numThreads;
  SCANDIAG_REQUIRE(lanes <= kMaxThreadCount,
                   "thread count " + std::to_string(lanes) +
                       " is implausibly large (negative value passed to --threads?)");
  workers_.reserve(lanes - 1);
  // Lane 0 is the calling thread; pool workers take lanes 1..N (the lane
  // index keys per-worker utilization in the metrics registry).
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  if (workers_.empty() || tlsInsideParallelRegion) {
    runInline(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SCANDIAG_ASSERT(!stopping_, "task posted to a stopping thread pool");
    queue_.push_back(std::move(task));
  }
  available_.notify_one();
}

void ThreadPool::workerLoop(std::size_t lane) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }
    RegionGuard guard;
    obs::WorkerScope busy(lane);
    try {
      task();
    } catch (...) {
      // A task exception must never kill the worker (std::terminate) — the
      // pool would then deadlock every later batch. Stash the first escaped
      // exception; the next parallelFor/parallelForRange rethrows it on the
      // submitting thread.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!escapedError_) escapedError_ = std::current_exception();
    }
  }
}

void ThreadPool::runOnLanes(std::size_t lanes,
                            const std::function<void(std::size_t)>& laneBody) {
  struct Completion {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  auto state = std::make_shared<Completion>();
  state->remaining = lanes - 1;
  state->errors.assign(lanes, nullptr);

  for (std::size_t c = 1; c < lanes; ++c) {
    auto laneTask = [state, &laneBody, c] {
      // RAII decrement: `remaining` reaches 0 no matter how the body exits,
      // so the submitting thread can never wait forever on a thrown lane.
      struct Decrement {
        Completion& completion;
        ~Decrement() {
          std::lock_guard<std::mutex> lock(completion.mutex);
          if (--completion.remaining == 0) completion.done.notify_one();
        }
      } decrement{*state};
      try {
        laneBody(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->errors[c] = std::current_exception();
      }
    };
    try {
      post(laneTask);
    } catch (...) {
      // Queueing itself failed (allocation, pool shutting down). The task
      // never reached a worker, so run the lane inline: the batch still
      // completes, `remaining` still hits 0, and the error (if the body
      // throws here too) is recorded under this lane's index as usual.
      laneTask();
    }
  }

  {
    RegionGuard guard;
    obs::WorkerScope busy(0);
    try {
      laneBody(0);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->errors[0] = std::current_exception();
    }
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining == 0; });
  for (const std::exception_ptr& error : state->errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::rethrowEscapedError() {
  // No lane recorded an error, but a worker may have caught an exception
  // that escaped some other task (see workerLoop): surface it here rather
  // than dropping it on the floor.
  std::exception_ptr escaped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    escaped = escapedError_;
    escapedError_ = nullptr;
  }
  if (escaped) std::rethrow_exception(escaped);
}

void ThreadPool::parallelForRange(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = std::min(threadCount(), n);
  if (chunks == 1 || tlsInsideParallelRegion) {
    runInline([&] { body(0, n); });
    return;
  }
  // Fixed partition: chunk c owns [c*n/chunks, (c+1)*n/chunks) — a pure
  // function of (n, threadCount), independent of scheduling.
  runOnLanes(chunks, [&](std::size_t c) { body(c * n / chunks, (c + 1) * n / chunks); });
  rethrowEscapedError();
}

void ThreadPool::parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lanes = std::min(threadCount(), n);
  if (lanes == 1 || tlsInsideParallelRegion) {
    runInline([&] {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    });
    return;
  }
  // Lane c runs index c first, so every lane gets work however late its
  // worker wakes; after that each lane claims the next unclaimed index. The
  // first indices always run and later claims are monotone, so when index i
  // throws every index below i runs to the end: the lowest recorded error is
  // the one a serial loop would hit first.
  std::atomic<std::size_t> next{lanes};
  std::atomic<bool> failed{false};
  std::mutex errorMutex;
  std::size_t firstFailed = n;
  std::exception_ptr firstError;
  runOnLanes(lanes, [&](std::size_t lane) {
    for (std::size_t i = lane; i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (i < firstFailed) {
          firstFailed = i;
          firstError = std::current_exception();
        }
        failed.store(true);
      }
      if (failed.load()) return;
    }
  });
  if (firstError) std::rethrow_exception(firstError);
  rethrowEscapedError();
}

namespace {

std::mutex globalPoolMutex;
std::unique_ptr<ThreadPool>& globalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& globalPool() {
  std::lock_guard<std::mutex> lock(globalPoolMutex);
  std::unique_ptr<ThreadPool>& slot = globalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void setGlobalThreadCount(std::size_t n) {
  std::lock_guard<std::mutex> lock(globalPoolMutex);
  globalPoolSlot() = std::make_unique<ThreadPool>(n);
}

}  // namespace scandiag
