#ifndef TSFM_PIPELINE_SESSION_H_
#define TSFM_PIPELINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "data/dataset.h"
#include "models/foundation_model.h"
#include "models/head.h"

namespace tsfm::pipeline {

/// Inference-time knobs of a session. `normalize` and `batch_size` match the
/// fit's preprocessing and batch split. Each sample's output does not depend
/// on how the batch is split, so predictions are bit-identical to
/// `TsfmClassifier::Predict` and to the fit's own evaluation.
struct SessionOptions {
  bool normalize = true;
  int64_t batch_size = 32;
};

/// One row of `InferenceSession::Describe`: what `tsfm pipeline describe`
/// prints per stage.
struct StageDescription {
  std::string name;
  std::string signature;  // "(N,T,D)->(N,T',D')"; for reading, not parsing
  int64_t state_bytes = 0;
};

/// An immutable fitted pipeline bundle for serving: frozen encoder, fitted
/// adapter (optional), trained head, and the training-set normalization
/// statistics, all held as shared_ptr<const>.
///
/// Thread-safety: `Predict` / `PredictBatch` / `Logits` / `Embed` are
/// re-entrant — safe to call from many threads at once on one session, and
/// bit-identical to the serial loop. Every call builds its own NoGradGuard
/// (thread-local); nothing in the session mutates after
/// construction. Sessions are created fitted and never refit — swap in a new
/// session (see Registry) to change models.
class InferenceSession {
 public:
  /// Validates and bundles the parts. `adapter` may be null (no adapter
  /// configured); when `options.normalize` is set, `stats` must hold
  /// matching mean/std vectors. `num_classes` is the head's logit count
  /// (used for Describe and input checks).
  static Result<std::shared_ptr<const InferenceSession>> Create(
      std::shared_ptr<const models::FoundationModel> model,
      std::shared_ptr<const core::Adapter> adapter,
      std::shared_ptr<const models::ClassificationHead> head,
      data::ChannelStats stats, int64_t num_classes, SessionOptions options);

  /// Class labels for a raw (N, T, D) batch. Applies exactly the
  /// training-time preprocessing (normalize with train stats, adapter
  /// transform) before the encoder and head. Like Logits and Embed, returns
  /// InvalidArgument for any other rank or for N = 0.
  Result<std::vector<int64_t>> PredictBatch(const Tensor& x) const;

  /// Label for one sample: (T, D), or (1, T, D).
  Result<int64_t> Predict(const Tensor& x) const;

  /// Head logits (N, C) for a raw (N, T, D) batch.
  Result<Tensor> Logits(const Tensor& x) const;

  /// Encoder embeddings (N, E) for a raw (N, T, D) batch (preprocessing
  /// included, head skipped).
  Result<Tensor> Embed(const Tensor& x) const;

  /// One row per stage the session runs: normalize (when on), adapt (when
  /// there is an adapter), embed and head.
  std::vector<StageDescription> Describe() const;

  const models::FoundationModel& model() const { return *model_; }
  /// Null when the pipeline has no adapter.
  const core::Adapter* adapter() const { return adapter_.get(); }
  const models::ClassificationHead& head() const { return *head_; }
  const data::ChannelStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }
  int64_t num_classes() const { return num_classes_; }

 private:
  InferenceSession(std::shared_ptr<const models::FoundationModel> model,
                   std::shared_ptr<const core::Adapter> adapter,
                   std::shared_ptr<const models::ClassificationHead> head,
                   data::ChannelStats stats, int64_t num_classes,
                   SessionOptions options);

  /// Shared forward: preprocess + encode + (optionally) head, batch by
  /// batch. `with_head` selects logits vs embeddings.
  Result<Tensor> Run(const Tensor& x, bool with_head) const;

  std::shared_ptr<const models::FoundationModel> model_;
  std::shared_ptr<const core::Adapter> adapter_;  // may be null
  std::shared_ptr<const models::ClassificationHead> head_;
  data::ChannelStats stats_;
  int64_t num_classes_ = 0;
  SessionOptions options_;
};

}  // namespace tsfm::pipeline

#endif  // TSFM_PIPELINE_SESSION_H_
