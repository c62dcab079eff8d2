#ifndef TSFM_FINETUNE_CLASSIFIER_H_
#define TSFM_FINETUNE_CLASSIFIER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "finetune/finetune.h"
#include "models/head.h"
#include "models/pretrained.h"
#include "obs/run_report.h"
#include "pipeline/session.h"

namespace tsfm::finetune {

/// Configuration of the one-stop classifier pipeline.
struct ClassifierConfig {
  models::ModelKind model_kind = models::ModelKind::kMoment;
  models::FoundationModelConfig model_config;  // defaulted from model_kind
  models::PretrainOptions pretrain;
  /// Pretrained checkpoint location; empty = pretrain in memory each time.
  std::string checkpoint_path;
  /// nullopt = no adapter (all channels go to the encoder).
  std::optional<core::AdapterKind> adapter = core::AdapterKind::kPca;
  core::AdapterOptions adapter_options;
  FineTuneOptions finetune;
  /// Directory for the run-report manifest written after Fit. Empty = fall
  /// back to TSFM_RUN_REPORT; when that is unset too, no file is written
  /// (the report is still assembled and available via `last_report()`).
  std::string report_dir;

  ClassifierConfig() : model_config(models::MomentSmallConfig()) {}
};

/// High-level "user-friendly" API: a foundation model + adapter + head bundle
/// with an sklearn-like Fit / Predict / Evaluate surface. This is the object
/// a downstream user adopts; the lower-level pieces stay available for
/// research use.
///
/// Since the pipeline refactor this is a facade over the pipeline layer:
/// Fit drives the stage pipeline (via FineTuneWithHead), the fitted state is
/// published as an immutable pipeline::InferenceSession, and Predict /
/// Evaluate delegate to that session — so classifier predictions and session
/// predictions are bit-identical by construction. `session()` hands the
/// bundle out for concurrent serving; each Fit or Load publishes a fresh
/// session and never mutates a previously handed-out one.
class TsfmClassifier {
 public:
  /// Builds the pipeline: loads (or pretrains) the foundation model and
  /// constructs the adapter.
  static Result<TsfmClassifier> Create(const ClassifierConfig& config);

  TsfmClassifier(TsfmClassifier&&) = default;
  TsfmClassifier& operator=(TsfmClassifier&&) = default;

  /// Fits adapter + head on `train` (and reports held-out accuracy on
  /// `valid` if provided; otherwise training accuracy is reported).
  Status Fit(const data::TimeSeriesDataset& train,
             const data::TimeSeriesDataset* valid = nullptr);

  /// Predicts class labels for a raw (N, T, D) batch.
  Result<std::vector<int64_t>> Predict(const Tensor& x) const;

  /// Accuracy on a labeled dataset.
  Result<double> Evaluate(const data::TimeSeriesDataset& ds) const;

  bool fitted() const { return fitted_; }
  /// Metrics of the last Fit call. Requires fitted().
  const FineTuneResult& last_fit_result() const { return last_result_; }
  /// Full run-report manifest of the last Fit call (timeline, measured
  /// memory, paper-scale estimate, budget verdict). Requires fitted().
  const obs::RunReport& last_report() const { return last_report_; }
  /// Path the last report was written to; empty when no report directory
  /// was configured (config or TSFM_RUN_REPORT).
  const std::string& last_report_path() const { return last_report_path_; }
  /// The pretrained encoder. Fit never changes it: full fine-tuning trains
  /// a copy, which only that Fit's session reads.
  const models::FoundationModel& model() const { return *model_; }
  /// Null if the pipeline was configured without an adapter.
  const core::Adapter* adapter() const { return adapter_.get(); }

  /// The immutable fitted bundle serving Predict: safe to share across
  /// threads and to keep using after this classifier refits (a refit
  /// publishes a new session; handed-out sessions are never mutated).
  /// Null before Fit/Load.
  std::shared_ptr<const pipeline::InferenceSession> session() const {
    return session_;
  }

  /// Persists the *fitted* pipeline state — adapter, trained head, and the
  /// training-set normalization statistics — under `prefix` (three files
  /// via the pipeline registry's artifact naming: `<prefix>.adapter` when an
  /// adapter is configured, `<prefix>.head`, `<prefix>.stats`). The
  /// foundation-model weights are NOT duplicated; they live in the
  /// checkpoint referenced by the config. Requires fitted(), and refuses
  /// (FailedPrecondition) after a full fine-tuning Fit, whose trained
  /// encoder the bundle cannot hold.
  Status Save(const std::string& prefix) const;

  /// Restores state written by `Save` into a classifier created with the
  /// same configuration (same model family/config, adapter kind and D',
  /// same number of classes). The pipeline is ready to Predict afterwards.
  Status Load(const std::string& prefix, int64_t num_classes);

 private:
  TsfmClassifier() = default;

  /// Publishes the current fitted state as a fresh immutable session.
  Status RefreshSession();

  ClassifierConfig config_;
  std::shared_ptr<models::FoundationModel> model_;  // pretrained
  // The encoder the current session reads: `model_`, or the copy a full
  // fine-tuning Fit trained.
  std::shared_ptr<models::FoundationModel> fitted_model_;
  std::shared_ptr<core::Adapter> adapter_;
  std::shared_ptr<models::ClassificationHead> head_;
  data::ChannelStats stats_;
  int64_t num_classes_ = 0;
  bool fitted_ = false;
  std::shared_ptr<const pipeline::InferenceSession> session_;
  FineTuneResult last_result_;
  obs::RunReport last_report_;
  std::string last_report_path_;
};

}  // namespace tsfm::finetune

#endif  // TSFM_FINETUNE_CLASSIFIER_H_
