#ifndef TSFM_SERVE_BATCHER_H_
#define TSFM_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "pipeline/session.h"
#include "tensor/tensor.h"

namespace tsfm::serve {

/// Micro-batching has one policy and no timer: each forward takes every
/// compatible request that queued while the previous forward ran, capped at
/// `max_batch` samples. A request reaching an idle batcher runs at once, and
/// under concurrent load requests still share forwards.
struct BatchOptions {
  int64_t max_batch = 64;
};

/// Request identity carried into the batcher: `trace_id` stitches the
/// request's spans (queue wait, the batch it rode in) into the client's
/// trace; `request_id` is the wire-level id, echoed into the access log.
struct RequestMeta {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
};

/// Per-request batching outcome, filled by the worker *before* the
/// request's future resolves (the promise/future edge publishes it, so the
/// submitter may read it after future.get() with no extra synchronization).
struct BatchStats {
  uint64_t batch_id = 0;      // process-unique id of the executed batch
  int64_t queue_us = 0;       // enqueue -> batch execute start
  int64_t execute_us = 0;     // merged forward duration
  int64_t batch_samples = 0;  // total samples in the batch this request rode
  int64_t batch_requests = 0; // number of requests merged into it
};

/// Coalesces concurrent classify/embed requests into single
/// PredictBatch/Embed calls on the current InferenceSession.
///
/// Requests are compatible when they ask for the same operation (classify vs
/// embed) and carry the same (T, D) series shape; the scheduler merges every
/// compatible queued request (arrival order preserved) into one (ΣN, T, D)
/// forward and splits results back per request. Because the per-sample math
/// is batch-composition-independent (the determinism contract), merged
/// responses are bit-identical to serial ones — serve_test asserts this.
///
/// The session is re-resolved from `provider` once per executed batch, which
/// is what makes registry hot-swap safe: a batch runs entirely on one
/// session, in-flight batches keep their session alive via shared_ptr, and
/// the next batch picks up the newly installed one.
class MicroBatcher {
 public:
  using SessionProvider =
      std::function<std::shared_ptr<const pipeline::InferenceSession>()>;

  MicroBatcher(SessionProvider provider, BatchOptions options);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues a (N, T, D) batch for classification; the future resolves to
  /// the labels (or the session's error). After Stop, submissions fail
  /// immediately with ResourceExhausted. `meta` propagates the request's
  /// trace context into the batch's spans; a non-null `stats` (which must
  /// outlive the future) receives the request's batching outcome before the
  /// future resolves.
  std::future<Result<std::vector<int64_t>>> SubmitClassify(
      Tensor x, RequestMeta meta = {}, BatchStats* stats = nullptr);

  /// Enqueues a (N, T, D) batch for embedding; resolves to a (N, E) tensor.
  std::future<Result<Tensor>> SubmitEmbed(Tensor x, RequestMeta meta = {},
                                          BatchStats* stats = nullptr);

  /// Samples currently queued (admission-control input).
  int64_t pending_samples() const;

  /// Drains: every request queued before the call is executed and answered,
  /// then the worker exits. Idempotent; safe to call while submitters are
  /// blocked on futures.
  void Stop();

 private:
  struct Pending {
    Pending(Tensor x, bool embed, RequestMeta meta, BatchStats* stats)
        : x(std::move(x)), embed(embed), meta(meta), stats(stats) {}

    Tensor x;
    bool embed;
    RequestMeta meta;
    BatchStats* stats;       // owned by the submitter
    int64_t enqueue_ns = 0;  // obs::TraceNowNs() at submit time
    std::promise<Result<std::vector<int64_t>>> labels;
    std::promise<Result<Tensor>> tensor;

    void Fail(const Status& status) {
      if (embed) {
        tensor.set_value(status);
      } else {
        labels.set_value(status);
      }
    }
  };

  /// Queues `p` and wakes the worker; after Stop, fails it at once.
  void Enqueue(Pending p);
  void WorkerLoop();
  /// Pops front plus every compatible queued request, up to max_batch
  /// samples. Caller holds mu_.
  std::vector<Pending> TakeBatchLocked();
  static void ExecuteBatch(
      const std::shared_ptr<const pipeline::InferenceSession>& session,
      std::vector<Pending> batch);

  const SessionProvider provider_;
  const BatchOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  int64_t queued_samples_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace tsfm::serve

#endif  // TSFM_SERVE_BATCHER_H_
