#include "models/moment.h"

#include <algorithm>

#include "common/check.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "optim/optim.h"
#include "tensor/ops.h"

namespace tsfm::models {

MomentModel::MomentModel(const FoundationModelConfig& config, Rng* rng)
    : FoundationModel(config) {
  TSFM_CHECK_EQ(config.patch_stride, config.patch_len)
      << "MOMENT uses non-overlapping patches";
  patch_embed_ =
      std::make_shared<nn::Linear>(config.patch_len, config.d_model, rng);
  encoder_ = std::make_shared<nn::TransformerEncoder>(
      config.num_layers, config.d_model, config.num_heads, config.d_hidden,
      config.dropout, rng);
  reconstruction_head_ =
      std::make_shared<nn::Linear>(config.d_model, config.patch_len, rng);
  positions_ = std::make_unique<nn::PositionalEncoding>(config.max_patches,
                                                        config.d_model);
  RegisterModule("patch_embed", patch_embed_);
  RegisterModule("encoder", encoder_);
  RegisterModule("reconstruction_head", reconstruction_head_);
}

int64_t MomentModel::NumPatches(int64_t t) const {
  return std::max<int64_t>(1, t / config_.patch_len);
}

ag::Var MomentModel::Patchify(const ag::Var& series) const {
  TSFM_CHECK_EQ(series.ndim(), 2) << "Patchify expects (B, T)";
  const int64_t b = series.dim(0);
  const int64_t t = series.dim(1);
  const int64_t l = config_.patch_len;
  if (t >= l) {
    const int64_t p = t / l;
    ag::Var trimmed = t % l == 0 ? series : ag::SliceOp(series, 1, 0, p * l);
    return ag::Reshape(trimmed, Shape{b, p, l});
  }
  // Right-pad short series with zeros to one full patch.
  ag::Var pad = ag::Constant(Tensor::Zeros(Shape{b, l - t}));
  return ag::Reshape(ag::ConcatOp({series, pad}, 1), Shape{b, 1, l});
}

ag::Var MomentModel::EncodeSeries(const ag::Var& series,
                                  const nn::ForwardContext& ctx) const {
  ag::Var patches = Patchify(series);                 // (B, P, L)
  ag::Var tokens = patch_embed_->Forward(patches);    // (B, P, E)
  tokens = positions_->Forward(tokens);
  return encoder_->Forward(tokens, ctx);              // (B, P, E)
}

Result<double> MomentModel::Pretrain(const PretrainOptions& options) {
  if (options.mask_ratio <= 0.0f || options.mask_ratio >= 1.0f) {
    return Status::InvalidArgument("mask_ratio must be in (0, 1)");
  }
  Rng rng(options.seed);
  Tensor corpus = data::GeneratePretrainCorpus(
      options.corpus_size, options.series_length, options.seed ^ 0xC0FFEE);
  optim::AdamW opt(Parameters(), options.lr);
  const int64_t p = NumPatches(options.series_length);
  const int64_t l = config_.patch_len;

  double last_epoch_loss = 0.0;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    Rng epoch_rng = rng.Fork();
    auto batches =
        data::MakeBatches(corpus.dim(0), options.batch_size, &epoch_rng);
    double loss_sum = 0.0;
    for (const auto& batch_idx : batches) {
      Tensor batch = TakeRows(corpus, batch_idx);  // (B, T)
      const int64_t b = batch.dim(0);
      // Build the patch-level mask and the corrupted input (masked patches
      // zeroed out in the raw series).
      Tensor mask(Shape{b, p, l});
      Tensor corrupted = batch.Clone();
      for (int64_t i = 0; i < b; ++i) {
        for (int64_t j = 0; j < p; ++j) {
          if (epoch_rng.Uniform() < options.mask_ratio) {
            for (int64_t s = 0; s < l; ++s) {
              mask.at({i, j, s}) = 1.0f;
              corrupted.at({i, static_cast<int64_t>(j * l + s)}) = 0.0f;
            }
          }
        }
      }
      nn::ForwardContext ctx{/*training=*/true, &epoch_rng};
      ag::Var tokens = EncodeSeries(ag::Constant(corrupted), ctx);
      ag::Var recon = reconstruction_head_->Forward(tokens);  // (B, P, L)
      Tensor target =
          Slice(batch, 1, 0, p * l).Reshape(Shape{b, p, l});
      // Masked reconstruction is the MOMENT objective; a small full-series
      // term also supervises the head on visible patches. That term is part
      // of the recipe every checkpoint and accuracy figure was produced
      // with: dropping it would change them all.
      ag::Var loss = ag::Add(
          ag::MaskedMseLoss(recon, target, mask),
          ag::Scale(ag::MseLoss(recon, target), 0.2f));
      loss.Backward();
      optim::ClipGradNorm(Parameters(), 1.0f);
      opt.Step();
      opt.ZeroGrad();
      loss_sum += loss.value()[0];
    }
    last_epoch_loss = loss_sum / static_cast<double>(batches.size());
  }
  return last_epoch_loss;
}

}  // namespace tsfm::models
