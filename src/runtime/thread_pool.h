#ifndef TSFM_RUNTIME_THREAD_POOL_H_
#define TSFM_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsfm::runtime {

/// Fixed-size thread pool with a shared FIFO queue. No work stealing: tasks
/// are claimed from one queue under a mutex, which is plenty for the
/// coarse-grained chunks ParallelFor produces. A worker that finds the queue
/// empty polls it briefly before it blocks (at most one worker polls at a
/// time). The destructor drains the queue and joins all workers (clean
/// shutdown).
///
/// Most code should not touch this class directly — use the free functions
/// ParallelFor / ParallelReduce below, which run on a lazily constructed
/// global pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker. Tasks must not throw —
  /// ParallelFor wraps user functions and captures their exceptions; raw
  /// Submit callers get std::terminate on escape, as with std::thread.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::atomic<size_t> queued_{0};  // queue_.size(), for the polling worker
  int polling_ = 0;                // workers polling, 0 or 1; guarded by mu_
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Number of threads the global pool runs with (>= 1). Resolved on first use:
/// the TSFM_NUM_THREADS environment variable if set and valid, otherwise
/// std::thread::hardware_concurrency().
int NumThreads();

/// Thread count TSFM_NUM_THREADS / hardware concurrency would resolve to,
/// ignoring any SetNumThreads override.
int DefaultNumThreads();

/// Rebuilds the global pool with `n` workers (clamped to >= 1). Joins the old
/// pool first, so it must not be called concurrently with in-flight parallel
/// work. Intended for tests and benchmarks that sweep thread counts.
void SetNumThreads(int n);

/// True when called from inside a ParallelFor chunk (worker thread or the
/// calling thread while it participates). Nested ParallelFor calls detect
/// this and run inline, so kernels may parallelize unconditionally.
bool InParallelRegion();

namespace internal {

/// Number of fixed-size chunks ParallelFor splits [begin, end) into. Depends
/// only on (begin, end, grain) — never on the thread count. This is the
/// determinism contract: chunk boundaries (and therefore any per-chunk
/// partial results) are identical no matter how many workers execute them.
int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

/// Runs fn(chunk_index, chunk_begin, chunk_end) for every chunk. Chunks are
/// executed in parallel (any order); the call returns once all chunks have
/// finished. The first exception thrown by `fn` is rethrown on the calling
/// thread after completion of the remaining chunks.
void ParallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn);

}  // namespace internal

/// Parallel loop over [begin, end): splits the range into chunks of at most
/// `grain` iterations and runs fn(chunk_begin, chunk_end) for each, blocking
/// until all complete. Ranges with a single chunk (or any call from inside an
/// active parallel region) run inline on the calling thread, so `grain` is
/// also the serial cutover threshold. `fn` must write disjoint outputs per
/// chunk; under that condition results are bitwise independent of the thread
/// count.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Deterministic parallel reduction: `map_chunk(lo, hi)` produces one partial
/// per fixed chunk of [begin, end); partials are combined with
/// `reduce(acc, partial)` sequentially in chunk-index order. Because chunk
/// boundaries and the combine order depend only on (begin, end, grain), the
/// result is bit-identical for every thread count, including 1.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 MapFn map_chunk, ReduceFn reduce) {
  const int64_t chunks = internal::NumChunks(begin, end, grain);
  if (chunks == 0) return identity;
  std::vector<T> partials(static_cast<size_t>(chunks), identity);
  internal::ParallelForChunks(
      begin, end, grain, [&](int64_t c, int64_t lo, int64_t hi) {
        partials[static_cast<size_t>(c)] = map_chunk(lo, hi);
      });
  T acc = identity;
  for (const T& p : partials) acc = reduce(acc, p);
  return acc;
}

}  // namespace tsfm::runtime

#endif  // TSFM_RUNTIME_THREAD_POOL_H_
