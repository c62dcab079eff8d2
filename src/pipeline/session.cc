#include "pipeline/session.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace tsfm::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

// Per-request serving telemetry: how many samples were predicted and how
// long each request took, so a metrics snapshot answers "what latency is
// this session serving at".
struct SessionMetrics {
  obs::Counter* predictions;
  obs::Counter* requests;
  obs::Histogram* predict_seconds;
};

SessionMetrics& Metrics() {
  auto& r = obs::Registry::Instance();
  static SessionMetrics m{r.GetCounter("session.predictions"),
                          r.GetCounter("session.requests"),
                          r.GetHistogram("session.predict_seconds")};
  return m;
}

std::string Int64Str(int64_t v) { return std::to_string(v); }

// Size in bytes of the adapter's serialized fitted state: exactly what a
// Save would write.
int64_t AdapterStateBytes(const core::Adapter& adapter) {
  std::ostringstream os;
  if (!adapter.SaveState(&os).ok()) return 0;
  return static_cast<int64_t>(os.str().size());
}

}  // namespace

InferenceSession::InferenceSession(
    std::shared_ptr<const models::FoundationModel> model,
    std::shared_ptr<const core::Adapter> adapter,
    std::shared_ptr<const models::ClassificationHead> head,
    data::ChannelStats stats, int64_t num_classes, SessionOptions options)
    : model_(std::move(model)),
      adapter_(std::move(adapter)),
      head_(std::move(head)),
      stats_(std::move(stats)),
      num_classes_(num_classes),
      options_(options) {}

Result<std::shared_ptr<const InferenceSession>> InferenceSession::Create(
    std::shared_ptr<const models::FoundationModel> model,
    std::shared_ptr<const core::Adapter> adapter,
    std::shared_ptr<const models::ClassificationHead> head,
    data::ChannelStats stats, int64_t num_classes, SessionOptions options) {
  if (model == nullptr) return Status::InvalidArgument("session needs a model");
  if (head == nullptr) return Status::InvalidArgument("session needs a head");
  if (num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (adapter != nullptr && !adapter->fitted()) {
    return Status::FailedPrecondition("session adapter is not fitted");
  }
  if (options.normalize &&
      (stats.mean.numel() == 0 || stats.mean.numel() != stats.std.numel())) {
    return Status::InvalidArgument(
        "normalize requested but stats mean/std are missing or mismatched");
  }
  return std::shared_ptr<const InferenceSession>(new InferenceSession(
      std::move(model), std::move(adapter), std::move(head), std::move(stats),
      num_classes, options));
}

Result<Tensor> InferenceSession::Run(const Tensor& x, bool with_head) const {
  if (x.ndim() != 3 || x.dim(0) == 0) {
    return Status::InvalidArgument("session expects (N, T, D) with N > 0");
  }
  ag::NoGradGuard guard;
  Tensor input = x;
  if (options_.normalize) {
    input = Div(Sub(x, stats_.mean), stats_.std);
  }
  const int64_t batch = std::max<int64_t>(1, options_.batch_size);
  // An eval forward draws no randomness, so its context carries no Rng.
  const nn::ForwardContext ctx{/*training=*/false, /*rng=*/nullptr};
  std::vector<Tensor> chunks;
  chunks.reserve(static_cast<size_t>((input.dim(0) + batch - 1) / batch));
  for (int64_t start = 0; start < input.dim(0); start += batch) {
    const int64_t end = std::min(input.dim(0), start + batch);
    Tensor xb = Slice(input, 0, start, end);
    ag::Var reduced = ag::Constant(xb);
    if (adapter_ != nullptr) reduced = adapter_->TransformVar(reduced);
    ag::Var emb = model_->EncodeChannels(reduced, ctx);
    chunks.push_back(with_head ? head_->Forward(emb).value() : emb.value());
  }
  return Concat(chunks, 0);
}

Result<std::vector<int64_t>> InferenceSession::PredictBatch(
    const Tensor& x) const {
  TSFM_TRACE_SPAN("session.predict");
  const auto t_start = Clock::now();
  TSFM_ASSIGN_OR_RETURN(Tensor logits, Run(x, /*with_head=*/true));
  std::vector<int64_t> predictions = ArgMaxLast(logits);
  SessionMetrics& m = Metrics();
  m.requests->Add(1);
  m.predictions->Add(x.dim(0));
  m.predict_seconds->Observe(
      std::chrono::duration<double>(Clock::now() - t_start).count());
  return predictions;
}

Result<int64_t> InferenceSession::Predict(const Tensor& x) const {
  Tensor sample = x;
  if (x.ndim() == 2) {
    sample = x.Reshape({1, x.dim(0), x.dim(1)});
  }
  if (sample.ndim() != 3 || sample.dim(0) != 1) {
    return Status::InvalidArgument("Predict expects one sample (T, D)");
  }
  TSFM_ASSIGN_OR_RETURN(std::vector<int64_t> labels, PredictBatch(sample));
  return labels[0];
}

Result<Tensor> InferenceSession::Logits(const Tensor& x) const {
  TSFM_TRACE_SPAN("session.predict");
  return Run(x, /*with_head=*/true);
}

Result<Tensor> InferenceSession::Embed(const Tensor& x) const {
  TSFM_TRACE_SPAN("session.embed");
  return Run(x, /*with_head=*/false);
}

std::vector<StageDescription> InferenceSession::Describe() const {
  std::vector<StageDescription> out;
  if (options_.normalize) {
    out.push_back({"normalize", "(N,T,D)->(N,T,D)",
                   (stats_.mean.numel() + stats_.std.numel()) *
                       static_cast<int64_t>(sizeof(float))});
  }
  if (adapter_ != nullptr) {
    out.push_back({"adapt",
                   "(N,T,D)->(N,T'," + Int64Str(adapter_->output_channels()) +
                       ")",
                   AdapterStateBytes(*adapter_)});
  }
  out.push_back({"embed",
                 "(N,T,D')->(N," + Int64Str(model_->embedding_dim()) + ")",
                 model_->NumParameters() * static_cast<int64_t>(sizeof(float))});
  out.push_back({"head",
                 "(N," + Int64Str(model_->embedding_dim()) + ")->(N," +
                     Int64Str(num_classes_) + ")",
                 head_->NumParameters() * static_cast<int64_t>(sizeof(float))});
  return out;
}

}  // namespace tsfm::pipeline
