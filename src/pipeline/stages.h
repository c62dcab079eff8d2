#ifndef TSFM_PIPELINE_STAGES_H_
#define TSFM_PIPELINE_STAGES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/adapter.h"
#include "data/dataset.h"
#include "models/foundation_model.h"
#include "models/head.h"
#include "pipeline/progress.h"
#include "tensor/tensor.h"

namespace tsfm::pipeline {

/// What one fit run hands every stage call: batching, the shuffling stream
/// and the epoch callback. Plain value type: drivers copy it and tweak
/// fields per pass.
struct ExecutionContext {
  /// Mini-batch size for stages that process samples in chunks (embed, head
  /// training).
  int64_t batch_size = 32;
  /// Seed of HeadStage::Fit's batching stream when `rng` is unset.
  uint64_t seed = 0;

  // Read by nothing; kept because perfbench/worker.cc still assigns them.
  bool allow_embed_cache = false;
  std::string cache_salt;
  const data::ChannelStats* cache_stats = nullptr;

  /// Batching/shuffling stream for training stages; falls back to a local
  /// Rng(seed) when null. Drivers pass their own stream to preserve exact
  /// RNG sequences across refactors.
  Rng* rng = nullptr;
  /// Epoch-progress callback for training stages (HeadStage::Fit).
  EpochCallback on_epoch;
};

// The paper's chain, one class per step: normalize -> adapt -> embed ->
// head. Each owns its fitted state; `Fit` is exclusive, and `Apply` is const
// and safe to call from many threads once the stage is fitted. Every stage
// has the same Fit(x, y, ctx) / Apply(x, ctx) pair: the fine-tune driver and
// perfbench's traced fit replay make the same calls in the same order, so
// the replay's per-call rows account for the fit.

/// Z-score normalization with training-set statistics (the paper's
/// preprocessing). Fit computes per-channel mean/std over (N, T) jointly;
/// Apply broadcasts them over any (N, T, D) batch.
class NormalizeStage {
 public:
  NormalizeStage() = default;
  /// Restores a fitted stage from saved statistics.
  explicit NormalizeStage(data::ChannelStats stats);

  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx);
  /// FailedPrecondition before Fit.
  Result<Tensor> Apply(const Tensor& x, const ExecutionContext& ctx) const;

  /// Fitted statistics (empty before Fit).
  const data::ChannelStats& stats() const { return stats_; }

 private:
  data::ChannelStats stats_;
  bool fitted_ = false;
};

/// Channel-dimensionality reduction behind a core::Adapter: (N, T, D) ->
/// (N, T', D'). Fit delegates to Adapter::Fit (and records the
/// adapter.fit_seconds histogram); Apply to the static Transform.
class AdaptStage {
 public:
  explicit AdaptStage(std::shared_ptr<core::Adapter> adapter);

  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx);
  Result<Tensor> Apply(const Tensor& x, const ExecutionContext& ctx) const;

  /// Wall-clock of the last Fit call (0 before any Fit). Drivers surface it
  /// as FineTuneResult::adapter_fit_seconds.
  double last_fit_seconds() const { return last_fit_seconds_; }

 private:
  std::shared_ptr<core::Adapter> adapter_;
  double last_fit_seconds_ = 0;
};

/// Frozen-encoder embedding: (N, T, D') -> (N, E) in batch_size chunks.
/// The encoder is pretrained and frozen, so Fit does nothing.
class EmbedStage {
 public:
  explicit EmbedStage(std::shared_ptr<const models::FoundationModel> model);

  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx);
  Result<Tensor> Apply(const Tensor& x, const ExecutionContext& ctx) const;

 private:
  std::shared_ptr<const models::FoundationModel> model_;
};

/// Hyper-parameters of HeadStage::Fit (batching and shuffling come from the
/// ExecutionContext).
struct HeadTrainOptions {
  int64_t epochs = 60;
  float lr = 5e-2f;
  float weight_decay = 1e-4f;
};

/// Linear classification head: Fit trains it with AdamW on cached
/// embeddings (N, E); Apply maps embeddings to logits (N, C). `E` and `C`
/// are the head's shape; Fit and Apply refuse embeddings and labels that do
/// not fit it.
class HeadStage {
 public:
  HeadStage(std::shared_ptr<models::ClassificationHead> head,
            int64_t embedding_dim, int64_t num_classes,
            HeadTrainOptions options);

  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx);
  Result<Tensor> Apply(const Tensor& x, const ExecutionContext& ctx) const;

  /// Mean training loss of the final Fit epoch (0 before any Fit).
  double final_loss() const { return final_loss_; }

 private:
  std::shared_ptr<models::ClassificationHead> head_;
  HeadTrainOptions options_;
  int64_t embedding_dim_ = 0;
  int64_t num_classes_ = 0;
  double final_loss_ = 0;
};

/// Embeds every sample of `x` (already adapter-transformed) with the frozen
/// encoder in `batch_size` chunks, without building a tape. Returns (N, E);
/// an empty tensor when the live resource budget tripped mid-pass.
Tensor EmbedDataset(const models::FoundationModel& model, const Tensor& x,
                    int64_t batch_size);

}  // namespace tsfm::pipeline

#endif  // TSFM_PIPELINE_STAGES_H_
