#ifndef TSFM_MODELS_MOMENT_H_
#define TSFM_MODELS_MOMENT_H_

#include <memory>

#include "models/foundation_model.h"

namespace tsfm::models {

/// Scaled-down MOMENT-style foundation model (Goswami et al., 2024):
/// the time axis is split into non-overlapping patches of `patch_len`, each
/// patch is linearly embedded, sinusoidal positions are added, and a pre-norm
/// transformer encoder produces token embeddings. Pretraining reconstructs
/// randomly masked (zeroed) patches with an MSE objective restricted to the
/// masked positions.
class MomentModel : public FoundationModel {
 public:
  /// Builds the model with freshly initialized weights drawn from `rng`.
  MomentModel(const FoundationModelConfig& config, Rng* rng);

  ag::Var EncodeSeries(const ag::Var& series,
                       const nn::ForwardContext& ctx) const override;

  Result<double> Pretrain(const PretrainOptions& options) override;

  /// Number of patches produced for a series of length `t` (>= 1; the tail
  /// shorter than patch_len is dropped, and series shorter than one patch are
  /// right-padded with zeros).
  int64_t NumPatches(int64_t t) const;

 private:
  /// (B, T) -> patch value tensor (B, P, patch_len).
  ag::Var Patchify(const ag::Var& series) const;

  std::shared_ptr<nn::Linear> patch_embed_;
  std::shared_ptr<nn::TransformerEncoder> encoder_;
  std::shared_ptr<nn::Linear> reconstruction_head_;
  std::unique_ptr<nn::PositionalEncoding> positions_;
};

}  // namespace tsfm::models

#endif  // TSFM_MODELS_MOMENT_H_
