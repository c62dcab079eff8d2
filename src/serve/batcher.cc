#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace tsfm::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct BatchMetrics {
  obs::Counter* batches;
  obs::Counter* merged_requests;
  obs::Histogram* batch_size;
  obs::Histogram* execute_seconds;
};

BatchMetrics& Metrics() {
  auto& r = obs::Registry::Instance();
  static BatchMetrics m{r.GetCounter("serve.batches"),
                        r.GetCounter("serve.merged_requests"),
                        r.GetHistogram("serve.batch.size"),
                        r.GetHistogram("serve.batch.execute_seconds")};
  return m;
}

bool Compatible(const Tensor& a, bool a_embed, const Tensor& b,
                bool b_embed) {
  return a_embed == b_embed && a.dim(1) == b.dim(1) && a.dim(2) == b.dim(2);
}

// Process-unique micro-batch ids, minted per executed batch. Nonzero so a
// zero batch_id in a span or access-log line always means "never batched".
std::atomic<uint64_t> g_next_batch_id{0};

}  // namespace

MicroBatcher::MicroBatcher(SessionProvider provider, BatchOptions options)
    : provider_(std::move(provider)), options_(options) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

MicroBatcher::~MicroBatcher() { Stop(); }

std::future<Result<std::vector<int64_t>>> MicroBatcher::SubmitClassify(
    Tensor x, RequestMeta meta, BatchStats* stats) {
  Pending p(std::move(x), /*embed=*/false, meta, stats);
  auto future = p.labels.get_future();
  Enqueue(std::move(p));
  return future;
}

std::future<Result<Tensor>> MicroBatcher::SubmitEmbed(Tensor x,
                                                      RequestMeta meta,
                                                      BatchStats* stats) {
  Pending p(std::move(x), /*embed=*/true, meta, stats);
  auto future = p.tensor.get_future();
  Enqueue(std::move(p));
  return future;
}

void MicroBatcher::Enqueue(Pending p) {
  p.enqueue_ns = obs::TraceNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      p.Fail(Status::ResourceExhausted("server stopping"));
      return;
    }
    queued_samples_ += p.x.dim(0);
    queue_.push_back(std::move(p));
  }
  cv_.notify_all();
}

int64_t MicroBatcher::pending_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_samples_;
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::vector<MicroBatcher::Pending> MicroBatcher::TakeBatchLocked() {
  std::vector<Pending> batch;
  if (queue_.empty()) return batch;
  // Copies (cheap shared-buffer aliases): the front element is moved out of
  // the deque below, so references into it would dangle.
  const Tensor anchor = queue_.front().x;
  const bool anchor_embed = queue_.front().embed;
  int64_t samples = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const bool take =
        batch.empty() ||
        (Compatible(anchor, anchor_embed, it->x, it->embed) &&
         samples + it->x.dim(0) <= options_.max_batch);
    if (take) {
      samples += it->x.dim(0);
      queued_samples_ -= it->x.dim(0);
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
      // The anchor request alone may exceed max_batch (the session chunks
      // internally); further merging stops once the cap is reached.
      if (samples >= options_.max_batch) break;
    } else {
      ++it;
    }
  }
  return batch;
}

void MicroBatcher::ExecuteBatch(
    const std::shared_ptr<const pipeline::InferenceSession>& session,
    std::vector<Pending> batch) {
  const uint64_t batch_id =
      g_next_batch_id.fetch_add(1, std::memory_order_relaxed) + 1;
  // Every span recorded on this thread during the batch — the execute span
  // below and the session/pipeline stage spans inside the forward — carries
  // the batch id, which is the join key stitching each rider's request tree
  // to the shared batch.
  obs::ContextScope batch_scope({0, batch_id});
  const auto t_start = Clock::now();
  int64_t samples = 0;
  for (const Pending& p : batch) samples += p.x.dim(0);

  // Run the (merged) forward and stage per-request results; promises are
  // only resolved in the finalize loop after each request's BatchStats and
  // queue-wait span are published — the promise/future edge is what makes
  // the stats visible to the submitter without extra synchronization.
  Status failure = Status::OK();
  std::vector<std::vector<int64_t>> label_parts;
  std::vector<Tensor> tensor_parts;
  const int64_t exec_start_ns = obs::TraceNowNs();
  if (session == nullptr) {
    failure = Status::FailedPrecondition("no session installed");
  } else {
    TSFM_TRACE_SPAN("serve.batch.execute");
    // Single-request batches skip the concat; merged ones run one forward
    // and split results back by each request's sample count.
    Tensor merged;
    if (batch.size() == 1) {
      merged = batch[0].x;
    } else {
      std::vector<Tensor> parts;
      parts.reserve(batch.size());
      for (const Pending& p : batch) parts.push_back(p.x);
      merged = Concat(parts, 0);
    }

    if (batch[0].embed) {
      auto embeddings = session->Embed(merged);
      if (!embeddings.ok()) {
        failure = embeddings.status();
      } else {
        int64_t row = 0;
        for (const Pending& p : batch) {
          const int64_t n = p.x.dim(0);
          tensor_parts.push_back(
              Slice(*embeddings, 0, row, row + n).Contiguous());
          row += n;
        }
      }
    } else {
      auto labels = session->PredictBatch(merged);
      if (!labels.ok()) {
        failure = labels.status();
      } else {
        size_t row = 0;
        for (const Pending& p : batch) {
          const size_t n = static_cast<size_t>(p.x.dim(0));
          label_parts.emplace_back(labels->begin() + row,
                                   labels->begin() + row + n);
          row += n;
        }
      }
    }
  }
  const int64_t exec_end_ns = obs::TraceNowNs();
  const int64_t execute_us = (exec_end_ns - exec_start_ns) / 1000;

  // Publish batch metrics before any promise resolves: a submitter that has
  // seen its future complete must also see these counts.
  BatchMetrics& m = Metrics();
  m.batches->Add(1);
  if (batch.size() > 1) m.merged_requests->Add(batch.size());
  m.batch_size->Observe(static_cast<double>(samples));
  m.execute_seconds->Observe(
      std::chrono::duration<double>(Clock::now() - t_start).count());

  const bool tracing = obs::TraceEnabled();
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (p.stats != nullptr) {
      p.stats->batch_id = batch_id;
      p.stats->queue_us = (exec_start_ns - p.enqueue_ns) / 1000;
      p.stats->execute_us = execute_us;
      p.stats->batch_samples = samples;
      p.stats->batch_requests = static_cast<int64_t>(batch.size());
    }
    if (tracing) {
      // Retroactive per-request queue-wait span: its trace_id ties it to
      // the request's tree, its batch_id to the shared execute span above.
      obs::RecordSpan("serve.queue_wait", p.enqueue_ns,
                      exec_start_ns - p.enqueue_ns,
                      {p.meta.trace_id, batch_id});
    }
    if (!failure.ok()) {
      p.Fail(failure);
    } else if (p.embed) {
      p.tensor.set_value(std::move(tensor_parts[i]));
    } else {
      p.labels.set_value(std::move(label_parts[i]));
    }
  }
}

void MicroBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Stop drains: the worker exits only once the queue is empty.
    if (queue_.empty()) return;
    std::vector<Pending> batch = TakeBatchLocked();
    // The session lookup and the forward run outside the lock, so new
    // requests keep queueing (they form the next batch) and Stop can be
    // requested while the encoder is busy.
    lock.unlock();
    ExecuteBatch(provider_ ? provider_() : nullptr, std::move(batch));
    lock.lock();
  }
}

}  // namespace tsfm::serve
