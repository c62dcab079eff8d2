#ifndef TSFM_MODELS_FOUNDATION_MODEL_H_
#define TSFM_MODELS_FOUNDATION_MODEL_H_

#include <memory>
#include <string>

#include "autograd/ops.h"
#include "common/status.h"
#include "models/config.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace tsfm::models {

/// Abstract univariate time-series foundation model.
///
/// Like MOMENT and other TSFMs, the encoder is *univariate*: a multivariate
/// series of D channels is processed by running the encoder independently on
/// each channel and pooling, so compute and memory scale linearly in D —
/// the bottleneck the paper's adapters attack.
class FoundationModel : public nn::Module {
 public:
  explicit FoundationModel(FoundationModelConfig config)
      : config_(std::move(config)) {}

  const FoundationModelConfig& config() const { return config_; }
  int64_t embedding_dim() const { return config_.d_model; }

  /// Encodes a batch of univariate series (B, T) into per-patch token
  /// embeddings (B, P, E). Differentiable w.r.t. the input.
  virtual ag::Var EncodeSeries(const ag::Var& series,
                               const nn::ForwardContext& ctx) const = 0;

  /// Encodes a multivariate batch (B, T, D) into sample embeddings (B, E):
  /// channels are flattened into the batch (univariate processing), token
  /// embeddings are mean-pooled over patches, then over channels.
  /// Differentiable w.r.t. the input, so learnable adapters (lcomb) can be
  /// trained end-to-end through the frozen or unfrozen encoder. Under
  /// no-grad in eval mode the B*D series are encoded in fixed chunks inside
  /// one ParallelFor; the output bits are the same either way.
  ag::Var EncodeChannels(const ag::Var& x, const nn::ForwardContext& ctx) const;

  /// Runs one self-supervised pretraining pass appropriate to the model
  /// (masked reconstruction for MOMENT, InfoNCE for ViT). Returns the mean
  /// training loss of the final epoch.
  virtual Result<double> Pretrain(const PretrainOptions& options) = 0;

 protected:
  FoundationModelConfig config_;
};

}  // namespace tsfm::models

#endif  // TSFM_MODELS_FOUNDATION_MODEL_H_
