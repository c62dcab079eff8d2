#include "pipeline/stages.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "io/embed_cache.h"
#include "io/hash.h"
#include "obs/budget.h"
#include "obs/trace.h"
#include "optim/optim.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Correct predictions in one training batch (for the per-epoch timeline;
// the argmax rides on logits that are already computed).
int64_t CountCorrect(const Tensor& logits, const std::vector<int64_t>& yb) {
  const std::vector<int64_t> pred = ArgMaxLast(logits);
  int64_t correct = 0;
  for (size_t i = 0; i < pred.size() && i < yb.size(); ++i) {
    if (pred[i] == yb[i]) ++correct;
  }
  return correct;
}

}  // namespace

// ---------------------------------------------------------------------------
// NormalizeStage

NormalizeStage::NormalizeStage(data::ChannelStats stats)
    : stats_(std::move(stats)), fitted_(true) {}

Status NormalizeStage::Fit(const Tensor& x, const std::vector<int64_t>& y,
                           const ExecutionContext& ctx) {
  (void)y;
  (void)ctx;
  if (x.ndim() != 3) {
    return Status::InvalidArgument("normalize stage expects (N, T, D)");
  }
  data::TimeSeriesDataset view;
  view.x = x;
  stats_ = data::ComputeChannelStats(view);
  fitted_ = true;
  return Status::OK();
}

Result<Tensor> NormalizeStage::Apply(const Tensor& x,
                                     const ExecutionContext& ctx) const {
  (void)ctx;
  if (!fitted_) return Status::FailedPrecondition("normalize stage not fitted");
  if (x.ndim() != 3) {
    return Status::InvalidArgument("normalize stage expects (N, T, D)");
  }
  // (N, T, D) - (D) broadcasts over leading dims; identical math to
  // data::NormalizeWith.
  return Div(Sub(x, stats_.mean), stats_.std);
}

// ---------------------------------------------------------------------------
// AdaptStage

AdaptStage::AdaptStage(std::shared_ptr<core::Adapter> adapter)
    : adapter_(std::move(adapter)) {
  TSFM_CHECK(adapter_ != nullptr);
}

Status AdaptStage::Fit(const Tensor& x, const std::vector<int64_t>& y,
                       const ExecutionContext& ctx) {
  (void)ctx;
  TSFM_TRACE_SPAN("finetune.adapter_fit");
  const auto t_fit = Clock::now();
  TSFM_RETURN_IF_ERROR(adapter_->Fit(x, y));
  last_fit_seconds_ = SecondsSince(t_fit);
  RecordAdapterFit(last_fit_seconds_);
  return Status::OK();
}

Result<Tensor> AdaptStage::Apply(const Tensor& x,
                                 const ExecutionContext& ctx) const {
  (void)ctx;
  return adapter_->Transform(x);
}

// ---------------------------------------------------------------------------
// EmbedStage

EmbedStage::EmbedStage(std::shared_ptr<const models::FoundationModel> model)
    : model_(std::move(model)) {
  TSFM_CHECK(model_ != nullptr);
}

Status EmbedStage::Fit(const Tensor& x, const std::vector<int64_t>& y,
                       const ExecutionContext& ctx) {
  // The encoder is pretrained and frozen on this path; nothing to fit.
  (void)x;
  (void)y;
  (void)ctx;
  return Status::OK();
}

Result<Tensor> EmbedStage::Apply(const Tensor& x,
                                 const ExecutionContext& ctx) const {
  if (x.ndim() != 3) {
    return Status::InvalidArgument("embed stage expects (N, T, D)");
  }
  std::string mode = "eager";
  Tensor emb;
  if (ctx.allow_embed_cache) {
    emb = EmbedDatasetCached(*model_, x, ctx.batch_size, ctx.cache_salt,
                             ctx.cache_stats, &mode);
  } else {
    // Per-request path: never hash the model per call.
    emb = EmbedDataset(*model_, x, ctx.batch_size);
  }
  if (ctx.embed_mode != nullptr) *ctx.embed_mode = mode;
  // A tripped budget leaves `emb` empty; surface the diagnosis instead of
  // handing a truncated tensor to the next stage.
  TSFM_RETURN_IF_ERROR(obs::CheckBudget("finetune.embed_dataset"));
  return emb;
}

// ---------------------------------------------------------------------------
// HeadStage

HeadStage::HeadStage(std::shared_ptr<models::ClassificationHead> head,
                     int64_t embedding_dim, int64_t num_classes,
                     HeadTrainOptions options)
    : head_(std::move(head)),
      options_(options),
      embedding_dim_(embedding_dim),
      num_classes_(num_classes) {
  TSFM_CHECK(head_ != nullptr);
}

Status HeadStage::Fit(const Tensor& embeddings,
                      const std::vector<int64_t>& labels,
                      const ExecutionContext& ctx) {
  if (embeddings.ndim() != 2 || embeddings.dim(1) != embedding_dim_) {
    return Status::InvalidArgument("head stage trains on embeddings (N, E)");
  }
  if (static_cast<int64_t>(labels.size()) != embeddings.dim(0) ||
      std::any_of(labels.begin(), labels.end(), [&](int64_t label) {
        return label < 0 || label >= num_classes_;
      })) {
    return Status::InvalidArgument(
        "head stage needs one label in [0, C) per embedding");
  }
  optim::AdamW opt(head_->Parameters(), options_.lr, 0.9f, 0.999f, 1e-8f,
                   options_.weight_decay);
  Rng local_rng(ctx.seed);
  Rng* rng = ctx.rng != nullptr ? ctx.rng : &local_rng;
  double last = 0.0;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    TSFM_TRACE_SPAN("finetune.head_epoch");
    const auto t_epoch = Clock::now();
    auto batches = data::MakeBatches(embeddings.dim(0), ctx.batch_size, rng);
    double loss_sum = 0.0;
    int64_t correct = 0;
    for (const auto& idx : batches) {
      Tensor xb = TakeRows(embeddings, idx);
      std::vector<int64_t> yb;
      yb.reserve(idx.size());
      for (int64_t i : idx) yb.push_back(labels[static_cast<size_t>(i)]);
      ag::Var logits = head_->Forward(ag::Constant(xb));
      ag::Var loss = ag::CrossEntropy(logits, yb);
      loss.Backward();
      opt.Step();
      opt.ZeroGrad();
      loss_sum += loss.value()[0];
      if (ctx.on_epoch) correct += CountCorrect(logits.value(), yb);
    }
    RecordSteps(static_cast<int64_t>(batches.size()));
    last = loss_sum / static_cast<double>(batches.size());
    TSFM_RETURN_IF_ERROR(FinishEpoch(ctx.on_epoch, Phase::kHead, epoch,
                                     options_.epochs, SecondsSince(t_epoch),
                                     last, correct, embeddings.dim(0)));
  }
  final_loss_ = last;
  return Status::OK();
}

Result<Tensor> HeadStage::Apply(const Tensor& x,
                                const ExecutionContext& ctx) const {
  (void)ctx;
  if (x.ndim() != 2 || x.dim(1) != embedding_dim_) {
    return Status::InvalidArgument("head stage expects embeddings (N, E)");
  }
  ag::NoGradGuard guard;
  return head_->Forward(ag::Constant(x)).value();
}

// ---------------------------------------------------------------------------
// Dataset embedding

Tensor EmbedDataset(const models::FoundationModel& model, const Tensor& x,
                    int64_t batch_size) {
  TSFM_TRACE_SPAN("finetune.embed_dataset");
  const int64_t n = x.dim(0);
  const int64_t bs = std::max<int64_t>(1, batch_size);
  const int64_t num_batches = (n + bs - 1) / bs;
  std::vector<Tensor> chunks(static_cast<size_t>(num_batches));
  // Batches are independent under the frozen encoder, so they embed in
  // parallel; results land in per-batch slots and concatenate in batch
  // order, so the output matches the serial loop exactly. The NoGradGuard
  // is thread-local, so each task holds its own. An eval forward draws no
  // randomness, so its context carries no Rng.
  runtime::ParallelFor(0, num_batches, /*grain=*/1, [&](int64_t lo,
                                                        int64_t hi) {
    ag::NoGradGuard guard;
    const nn::ForwardContext ctx{/*training=*/false, /*rng=*/nullptr};
    for (int64_t b = lo; b < hi; ++b) {
      // Budget poll per batch: a long embed pass over a large dataset must
      // abort at the cap, not after it. A tripped budget abandons the
      // remaining batches; the caller sees it via CheckBudget and discards
      // the partial result.
      if (!obs::CheckBudget("finetune.embed_dataset").ok()) return;
      const int64_t start = b * bs;
      const int64_t end = std::min(n, start + bs);
      Tensor xb = Slice(x, 0, start, end);
      ag::Var emb = model.EncodeChannels(ag::Constant(xb), ctx);
      chunks[static_cast<size_t>(b)] = emb.value();
    }
  });
  if (obs::BudgetTripped()) return Tensor();
  return Concat(chunks, 0);
}

std::string EmbedCacheKey(const models::FoundationModel& model,
                          const Tensor& x, int64_t batch_size,
                          const std::string& salt,
                          const data::ChannelStats* stats) {
  // The encoder is frozen on this path, so the embedding is a pure function
  // of the weights, the (normalized, adapter-transformed) input, and the
  // batch split. Hash exactly those; the salt folds in strategy/adapter tags
  // so unrelated pipelines can never share an entry even on a hash fluke,
  // and the normalization statistics are keyed explicitly so a refit with
  // different train stats on the same raw tensor can never hit a stale
  // entry.
  io::HashBuilder key;
  key.AddString("tsfm.embed.v5");
  key.AddString(salt);
  key.AddU64(static_cast<uint64_t>(batch_size));
  if (stats != nullptr && stats->mean.numel() > 0) {
    key.AddString("stats");
    key.AddTensor(stats->mean);
    key.AddTensor(stats->std);
  } else {
    key.AddString("no_stats");
  }
  for (const auto& [name, p] : model.NamedParameters()) {
    key.AddString(name);
    key.AddTensor(p.value());
  }
  key.AddTensor(x);
  return key.HexDigest();
}

Tensor EmbedDatasetCached(const models::FoundationModel& model,
                          const Tensor& x, int64_t batch_size,
                          const std::string& salt,
                          const data::ChannelStats* stats, std::string* mode) {
  if (mode != nullptr) *mode = "eager";
  if (!io::EmbedCacheEnabled()) {
    return EmbedDataset(model, x, batch_size);
  }
  const std::string digest = EmbedCacheKey(model, x, batch_size, salt, stats);
  if (Result<Tensor> hit = io::EmbedCacheLookup(digest); hit.ok()) {
    if (mode != nullptr) *mode = "cache";
    return std::move(hit).value();
  }
  Tensor emb = EmbedDataset(model, x, batch_size);
  if (!obs::BudgetTripped() && emb.numel() > 0) {
    if (Status s = io::EmbedCacheStore(digest, emb); !s.ok()) {
      // A failed store never fails the run; the embedding is already here.
      std::fprintf(stderr, "embed cache store failed: %s\n",
                   s.ToString().c_str());
    }
  }
  return emb;
}

}  // namespace tsfm::pipeline
