#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"

namespace tsfm::runtime {

namespace {

// Scheduler counters, visible in obs::Registry snapshots as runtime.*:
// submitted/executed track queue traffic, queue_high_water the deepest the
// shared FIFO ever got (a proxy for how far task production outran the
// workers — this pool has one queue, so there is no steal counter to pair
// it with).
struct SchedulerMetrics {
  obs::Counter* submitted;
  obs::Counter* executed;
  obs::Gauge* queue_high_water;
};

SchedulerMetrics& Metrics() {
  static SchedulerMetrics m{
      obs::Registry::Instance().GetCounter("runtime.tasks_submitted"),
      obs::Registry::Instance().GetCounter("runtime.tasks_executed"),
      obs::Registry::Instance().GetGauge("runtime.queue_high_water")};
  return m;
}

// A thread that runs out of parallel work polls for more this long before
// it blocks. A forward pass issues ParallelFor regions microseconds apart.
// Blocking between them costs a sleep and a wake-up per region, and on a
// virtual machine an idle vCPU halts, so its wake-up waits on the hypervisor:
// on a busy host that wait can outlast the region itself.
constexpr auto kPollFor = std::chrono::microseconds(50);

// Polls `ready` until it holds or kPollFor has passed; returns its value.
template <typename Pred>
bool PollUntil(Pred ready) {
  const auto until = std::chrono::steady_clock::now() + kPollFor;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    if (std::chrono::steady_clock::now() >= until) return ready();
  }
}

// Set while a thread executes ParallelFor chunks — on pool workers for the
// whole worker lifetime, on the calling thread only while it participates.
thread_local bool g_in_parallel_region = false;

struct PoolState {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;  // nullptr => serial (1 thread)
  bool initialized = false;
};

PoolState& State() {
  static PoolState s;
  return s;
}

int ClampThreads(long n) {
  return static_cast<int>(std::clamp<long>(n, 1, 1024));
}

// Builds (or tears down) the pool for `n` threads. Caller holds State().mu.
void RebuildLocked(PoolState& s, int n) {
  s.pool.reset();  // join old workers before spawning new ones
  if (n > 1) s.pool = std::make_unique<ThreadPool>(n);
  s.initialized = true;
}

// Returns the global pool, creating it on first use; nullptr means serial.
ThreadPool* GetPool() {
  PoolState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.initialized) RebuildLocked(s, DefaultNumThreads());
  return s.pool.get();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  SchedulerMetrics& m = Metrics();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TSFM_CHECK(!stop_) << "Submit on a stopped ThreadPool";
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_release);
    const double depth = static_cast<double>(queue_.size());
    if (depth > m.queue_high_water->value()) m.queue_high_water->Set(depth);
    // The polling worker takes one task without a wake-up: it checks the
    // queue under mu_ before it blocks.
    wake = queue_.size() > static_cast<size_t>(polling_);
  }
  m.submitted->Add(1);
  if (wake) cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  g_in_parallel_region = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty() && !stop_ && polling_ == 0) {
      ++polling_;
      lock.unlock();
      PollUntil([this] { return queued_.load(std::memory_order_acquire) > 0; });
      lock.lock();
      --polling_;
    }
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and queue drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    queued_.store(queue_.size(), std::memory_order_release);
    lock.unlock();
    task();
    Metrics().executed->Add(1);
    lock.lock();
  }
}

int DefaultNumThreads() {
  if (const char* env = std::getenv("TSFM_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return ClampThreads(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() {
  ThreadPool* pool = GetPool();
  return pool == nullptr ? 1 : pool->num_threads();
}

void SetNumThreads(int n) {
  PoolState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  RebuildLocked(s, std::max(1, n));
}

bool InParallelRegion() { return g_in_parallel_region; }

namespace internal {

int64_t NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  const int64_t g = std::max<int64_t>(1, grain);
  return (end - begin + g - 1) / g;
}

namespace {

// Completion / error state shared between the caller and helper tasks. Held
// by shared_ptr so helpers that wake after the caller returned (having found
// no chunk left to claim) touch only valid memory.
struct ForState {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  int64_t chunks = 0;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  // `fn` is a borrowed pointer: valid until all chunks are done, and only
  // dereferenced after successfully claiming a chunk — which cannot happen
  // once the caller (who waits for done == chunks) has returned.
  const std::function<void(int64_t, int64_t, int64_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

void RunChunks(const std::shared_ptr<ForState>& st) {
  const bool prev = g_in_parallel_region;
  g_in_parallel_region = true;
  for (;;) {
    const int64_t c = st->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= st->chunks) break;
    const int64_t lo = st->begin + c * st->grain;
    const int64_t hi = std::min(st->end, lo + st->grain);
    try {
      (*st->fn)(c, lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->error) st->error = std::current_exception();
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->chunks) {
      std::lock_guard<std::mutex> lock(st->mu);
      st->cv.notify_all();
    }
  }
  g_in_parallel_region = prev;
}

}  // namespace

void ParallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const int64_t chunks = NumChunks(begin, end, grain);
  if (chunks == 0) return;
  const int64_t g = std::max<int64_t>(1, grain);

  // Dispatch counters: calls that stayed inline vs fanned out, and total
  // chunks produced. Chunk counts depend only on (begin, end, grain), so
  // the totals are identical across thread counts — obs_test relies on it.
  static obs::Counter* const calls =
      obs::Registry::Instance().GetCounter("runtime.parallel_for.calls");
  static obs::Counter* const inline_calls =
      obs::Registry::Instance().GetCounter("runtime.parallel_for.inline");
  static obs::Counter* const chunk_count =
      obs::Registry::Instance().GetCounter("runtime.parallel_for.chunks");
  calls->Add(1);
  chunk_count->Add(static_cast<uint64_t>(chunks));

  ThreadPool* pool = g_in_parallel_region ? nullptr : GetPool();
  if (pool == nullptr || chunks == 1) {
    inline_calls->Add(1);
    // Serial path: same chunk boundaries, ascending order. Used for 1-thread
    // pools, single-chunk ranges, and nested calls from inside a chunk.
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t lo = begin + c * g;
      fn(c, lo, std::min(end, lo + g));
    }
    return;
  }

  auto st = std::make_shared<ForState>();
  st->chunks = chunks;
  st->begin = begin;
  st->end = end;
  st->grain = g;
  st->fn = &fn;
  const int64_t helpers =
      std::min<int64_t>(pool->num_threads(), chunks) - 1;
  for (int64_t i = 0; i < helpers; ++i) {
    pool->Submit([st] { RunChunks(st); });
  }
  RunChunks(st);  // the caller works too
  // The helpers' last chunks usually end within microseconds.
  PollUntil([&] {
    return st->done.load(std::memory_order_acquire) == st->chunks;
  });
  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&] {
      return st->done.load(std::memory_order_acquire) == st->chunks;
    });
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace internal

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  internal::ParallelForChunks(
      begin, end, grain,
      [&fn](int64_t /*chunk*/, int64_t lo, int64_t hi) { fn(lo, hi); });
}

}  // namespace tsfm::runtime
