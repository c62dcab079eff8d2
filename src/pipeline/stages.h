#ifndef TSFM_PIPELINE_STAGES_H_
#define TSFM_PIPELINE_STAGES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "data/dataset.h"
#include "models/foundation_model.h"
#include "models/head.h"
#include "pipeline/stage.h"

namespace tsfm::pipeline {

/// Z-score normalization with training-set statistics (the paper's
/// preprocessing). Fit computes per-channel mean/std over (N, T) jointly;
/// Apply broadcasts them over any (N, T, D) batch.
class NormalizeStage : public Stage {
 public:
  NormalizeStage() = default;
  /// Restores a fitted stage from saved statistics.
  explicit NormalizeStage(data::ChannelStats stats);

  const char* name() const override { return "normalize"; }
  std::string ShapeSignature() const override;
  bool fitted() const override { return fitted_; }
  int64_t FittedStateBytes() const override;
  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx) override;
  Result<Tensor> Apply(const Tensor& x,
                       const ExecutionContext& ctx) const override;

  /// Fitted statistics; valid once fitted(). The reference stays valid for
  /// the stage's lifetime, so drivers can point ExecutionContext::cache_stats
  /// at it before Fit has run.
  const data::ChannelStats& stats() const { return stats_; }

 private:
  data::ChannelStats stats_;
  bool fitted_ = false;
};

/// Channel-dimensionality reduction behind a core::Adapter: (N, T, D) ->
/// (N, T', D'). Fit delegates to Adapter::Fit (and records the
/// adapter.fit_seconds histogram); Apply to the static Transform.
class AdaptStage : public Stage {
 public:
  explicit AdaptStage(std::shared_ptr<core::Adapter> adapter);

  const char* name() const override { return "adapt"; }
  std::string ShapeSignature() const override;
  bool fitted() const override;
  int64_t FittedStateBytes() const override;
  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx) override;
  Result<Tensor> Apply(const Tensor& x,
                       const ExecutionContext& ctx) const override;

  const core::Adapter* adapter() const { return adapter_.get(); }
  std::shared_ptr<core::Adapter> shared_adapter() const { return adapter_; }
  /// Wall-clock of the last Fit call (0 before any Fit). Drivers surface it
  /// as FineTuneResult::adapter_fit_seconds.
  double last_fit_seconds() const { return last_fit_seconds_; }

 private:
  std::shared_ptr<core::Adapter> adapter_;
  double last_fit_seconds_ = 0;
};

/// Frozen-encoder embedding: (N, T, D') -> (N, E) in batch_size chunks,
/// optionally through the content-addressed embedding cache. Born fitted —
/// the encoder weights are the (pretrained) fitted state.
class EmbedStage : public Stage {
 public:
  explicit EmbedStage(std::shared_ptr<const models::FoundationModel> model);

  const char* name() const override { return "embed"; }
  std::string ShapeSignature() const override;
  bool fitted() const override { return true; }
  int64_t FittedStateBytes() const override;
  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx) override;
  Result<Tensor> Apply(const Tensor& x,
                       const ExecutionContext& ctx) const override;

  const models::FoundationModel& model() const { return *model_; }
  std::shared_ptr<const models::FoundationModel> shared_model() const {
    return model_;
  }

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
/// embeddings (N, E); Apply maps embeddings to logits (N, C).
class HeadStage : public Stage {
 public:
  HeadStage(std::shared_ptr<models::ClassificationHead> head,
            int64_t embedding_dim, int64_t num_classes,
            HeadTrainOptions options);

  const char* name() const override { return "head"; }
  std::string ShapeSignature() const override;
  bool fitted() const override { return fitted_; }
  int64_t FittedStateBytes() const override;
  Status Fit(const Tensor& x, const std::vector<int64_t>& y,
             const ExecutionContext& ctx) override;
  Result<Tensor> Apply(const Tensor& x,
                       const ExecutionContext& ctx) const override;

  /// Mean training loss of the final Fit epoch. Requires fitted().
  double final_loss() const { return final_loss_; }
  const models::ClassificationHead& head() const { return *head_; }
  std::shared_ptr<models::ClassificationHead> shared_head() const {
    return head_;
  }

 private:
  std::shared_ptr<models::ClassificationHead> head_;
  HeadTrainOptions options_;
  int64_t embedding_dim_ = 0;
  int64_t num_classes_ = 0;
  bool fitted_ = false;
  double final_loss_ = 0;
};

/// Size in bytes of the adapter's serialized fitted state (exactly what a
/// Save would write); 0 when unfitted. Shared by AdaptStage and
/// InferenceSession::Describe.
int64_t AdapterStateBytes(const core::Adapter& adapter);

/// Embeds every sample of `x` (already adapter-transformed) with the frozen
/// encoder in `batch_size` chunks, without building a tape. Returns (N, E);
/// an empty tensor when the live resource budget tripped mid-pass.
Tensor EmbedDataset(const models::FoundationModel& model, const Tensor& x,
                    int64_t batch_size, uint64_t seed);

/// Content hash keying one dataset embedding in the cache: model parameters,
/// the (normalized, adapter-transformed) input tensor, the batch split, the
/// caller's strategy/adapter salt, and — when `stats` is non-null — the
/// normalization statistics the input was produced with, so a refit with
/// different train stats on the same raw tensor can never hit a stale entry.
/// Exposed for key-regression tests.
std::string EmbedCacheKey(const models::FoundationModel& model,
                          const Tensor& x, int64_t batch_size,
                          const std::string& salt,
                          const data::ChannelStats* stats);

/// `EmbedDataset` behind the content-addressed embedding cache. With the
/// cache disabled this is exactly `EmbedDataset`; a hit skips the encoder
/// entirely and is bit-identical to the miss path. Results of budget-aborted
/// passes are never stored. When `mode` is non-null it receives "cache" on a
/// hit, otherwise "eager".
Tensor EmbedDatasetCached(const models::FoundationModel& model,
                          const Tensor& x, int64_t batch_size, uint64_t seed,
                          const std::string& salt,
                          const data::ChannelStats* stats,
                          std::string* mode);

}  // namespace tsfm::pipeline

#endif  // TSFM_PIPELINE_STAGES_H_
