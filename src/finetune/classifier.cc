#include "finetune/classifier.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/budget.h"
#include "pipeline/registry.h"
#include "resources/cost_model.h"
#include "resources/measured.h"
#include "tensor/ops.h"

namespace tsfm::finetune {

namespace {

// JSON literals for RunReport::options (the report writer emits values
// verbatim, so numbers stay typed without a JSON library).
std::string JsonInt(int64_t v) { return std::to_string(v); }

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// The paper-scale prediction for the configuration this classifier just ran:
// same model family, same regime, channels clamped to the adapter's D'.
void FillEstimate(const ClassifierConfig& config, const core::Adapter* adapter,
                  const data::TimeSeriesDataset& train,
                  const data::TimeSeriesDataset& eval_split,
                  obs::RunReport* report) {
  const resources::PaperModelSpec spec =
      config.model_kind == models::ModelKind::kMoment
          ? resources::MomentPaperSpec()
          : resources::VitPaperSpec();
  resources::TrainRegime regime = resources::TrainRegime::kEmbedOnceHeadOnly;
  if (config.finetune.strategy == Strategy::kFullFineTune) {
    regime = resources::TrainRegime::kFullFineTune;
  } else if (adapter != nullptr && adapter->IsLearnable()) {
    regime = resources::TrainRegime::kAdapterPlusHeadLearnable;
  }
  int64_t channels = train.channels();
  if (adapter != nullptr) {
    channels = std::min(channels, config.adapter_options.out_channels);
  }
  const resources::Workload workload{train.size(), eval_split.size(),
                                     channels};
  const resources::ResourceEstimate est = resources::EstimateRun(
      spec, resources::V100Spec(), workload, regime);
  report->has_estimate = true;
  report->estimate_model = spec.name;
  report->estimate_regime = resources::TrainRegimeName(regime);
  report->estimate_verdict = resources::VerdictString(est.verdict);
  report->estimate_channels = channels;
  report->estimate_values = {
      {"param_bytes", est.param_bytes},
      {"optimizer_bytes", est.optimizer_bytes},
      {"activation_bytes", est.activation_bytes},
      {"attention_bytes", est.attention_bytes},
      {"peak_memory_bytes", est.peak_memory_bytes},
      {"total_flops", est.total_flops},
      {"total_seconds", est.total_seconds},
  };
}

}  // namespace

Result<TsfmClassifier> TsfmClassifier::Create(const ClassifierConfig& config) {
  TsfmClassifier classifier;
  classifier.config_ = config;
  // Default the architecture to the requested family if the caller left the
  // config at its MOMENT default but asked for ViT.
  if (config.model_kind == models::ModelKind::kVit &&
      classifier.config_.model_config.name == "MOMENT") {
    classifier.config_.model_config = models::VitSmallConfig();
  }
  TSFM_ASSIGN_OR_RETURN(
      classifier.model_,
      models::LoadOrPretrain(config.model_kind,
                             classifier.config_.model_config, config.pretrain,
                             config.checkpoint_path));
  if (config.adapter.has_value()) {
    classifier.adapter_ =
        core::CreateAdapter(*config.adapter, config.adapter_options);
    if (classifier.adapter_ == nullptr) {
      return Status::InvalidArgument("unknown adapter kind");
    }
  }
  return classifier;
}

Status TsfmClassifier::RefreshSession() {
  pipeline::SessionOptions session_options;
  session_options.normalize = config_.finetune.normalize;
  session_options.batch_size = config_.finetune.batch_size;
  TSFM_ASSIGN_OR_RETURN(
      session_, pipeline::InferenceSession::Create(fitted_model_, adapter_,
                                                   head_, stats_, num_classes_,
                                                   session_options));
  return Status::OK();
}

Status TsfmClassifier::Fit(const data::TimeSeriesDataset& train,
                           const data::TimeSeriesDataset* valid) {
  TSFM_RETURN_IF_ERROR(data::Validate(train));
  stats_ = data::ComputeChannelStats(train);

  // Fresh adapter and head every Fit: sessions handed out before this call
  // keep serving the previous fitted state untouched.
  if (config_.adapter.has_value()) {
    adapter_ = core::CreateAdapter(*config_.adapter, config_.adapter_options);
    if (adapter_ == nullptr) {
      return Status::InvalidArgument("unknown adapter kind");
    }
  }
  // Full fine-tuning trains the encoder, so it trains a copy of the
  // pretrained weights: earlier sessions and the next Fit keep reading the
  // pretrained model.
  std::shared_ptr<models::FoundationModel> fit_model = model_;
  if (config_.finetune.strategy == Strategy::kFullFineTune) {
    fit_model = models::CopyModel(config_.model_kind, *model_);
  }
  Rng head_rng(config_.finetune.seed * 2654435761ULL + 13);
  head_ = std::make_shared<models::ClassificationHead>(
      model_->embedding_dim(), train.num_classes, &head_rng);
  num_classes_ = train.num_classes;

  // FineTuneWithHead normalizes internally; we keep `stats_` only for
  // Predict-time preprocessing, so the two normalizations are identical by
  // construction.
  const data::TimeSeriesDataset& eval_split =
      valid != nullptr ? *valid : train;

  // Run-report assembly: chain a timeline collector onto the caller's
  // epoch callback and measure the allocator footprint around the run.
  obs::RunReport report;
  report.command = "classify";
  report.model = models::ModelKindName(config_.model_kind);
  report.adapter = config_.adapter.has_value()
                       ? core::AdapterKindName(*config_.adapter)
                       : "none";
  report.strategy = StrategyName(config_.finetune.strategy);
  report.dprime = config_.adapter.has_value()
                      ? config_.adapter_options.out_channels
                      : 0;
  const FineTuneOptions& ft = config_.finetune;
  report.options = {
      {"head_epochs", JsonInt(ft.head_epochs)},
      {"joint_epochs", JsonInt(ft.joint_epochs)},
      {"batch_size", JsonInt(ft.batch_size)},
      {"head_lr", JsonDouble(ft.head_lr)},
      {"joint_lr", JsonDouble(ft.joint_lr)},
      {"weight_decay", JsonDouble(ft.weight_decay)},
      {"seed", JsonInt(static_cast<int64_t>(ft.seed))},
      {"normalize", ft.normalize ? "true" : "false"},
  };

  FineTuneOptions run_options = config_.finetune;
  const auto user_on_epoch = run_options.on_epoch;
  run_options.on_epoch = [&report,
                          &user_on_epoch](const pipeline::EpochProgress& p) {
    obs::RunReportEpoch e;
    e.epoch = p.epoch;
    e.phase = pipeline::PhaseName(p.phase);
    e.loss = p.loss;
    e.accuracy = p.accuracy;
    e.seconds = p.seconds;
    e.pool_live_bytes = static_cast<double>(p.pool_live_bytes);
    report.epochs.push_back(std::move(e));
    if (user_on_epoch) user_on_epoch(p);
  };

  Result<FineTuneResult> result = Status::Internal("fit did not run");
  const resources::MeasuredMemory mem = resources::MeasurePeak([&] {
    result = FineTuneWithHead(fit_model.get(), adapter_.get(), head_.get(),
                              train, eval_split, run_options);
  });
  TSFM_RETURN_IF_ERROR(result.status());
  last_result_ = *result;

  report.mem_baseline_bytes = static_cast<double>(mem.baseline_bytes);
  report.mem_peak_bytes = static_cast<double>(mem.peak_bytes);
  report.mem_acquires = static_cast<double>(mem.acquires);
  report.mem_pool_hits = static_cast<double>(mem.pool_hits);
  report.mem_heap_allocs = static_cast<double>(mem.heap_allocs);
  report.train_accuracy = last_result_.train_accuracy;
  report.test_accuracy = last_result_.test_accuracy;
  report.final_loss = last_result_.final_loss;
  report.adapter_fit_seconds = last_result_.adapter_fit_seconds;
  report.train_seconds = last_result_.train_seconds;
  report.total_seconds = last_result_.total_seconds;
  report.stages = last_result_.stage_timings;
  FillEstimate(config_, adapter_.get(), train, eval_split, &report);
  // Device-budget semantics: what had to fit is baseline (weights, cached
  // data) plus the run's peak on top of it.
  report.budget = obs::JudgeBudget(
      obs::CurrentBudget(),
      static_cast<double>(mem.baseline_bytes + mem.peak_bytes),
      last_result_.total_seconds);
  last_report_ = std::move(report);

  last_report_path_.clear();
  const std::string report_dir = !config_.report_dir.empty()
                                     ? config_.report_dir
                                     : obs::RunReportDirFromEnv();
  if (!report_dir.empty()) {
    TSFM_ASSIGN_OR_RETURN(last_report_path_,
                          obs::WriteRunReport(last_report_, report_dir));
  }
  fitted_model_ = std::move(fit_model);
  TSFM_RETURN_IF_ERROR(RefreshSession());
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<int64_t>> TsfmClassifier::Predict(const Tensor& x) const {
  if (!fitted_) return Status::FailedPrecondition("classifier not fitted");
  // Delegation, not reimplementation: the session runs exactly the
  // training-time preprocessing and evaluation loop, so facade and session
  // predictions are bit-identical by construction.
  return session_->PredictBatch(x);
}

Result<double> TsfmClassifier::Evaluate(
    const data::TimeSeriesDataset& ds) const {
  TSFM_RETURN_IF_ERROR(data::Validate(ds));
  TSFM_ASSIGN_OR_RETURN(std::vector<int64_t> predictions, Predict(ds.x));
  return data::Accuracy(predictions, ds);
}

Status TsfmClassifier::Save(const std::string& prefix) const {
  if (!fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted classifier");
  }
  if (fitted_model_ != model_) {
    // The bundle holds no encoder weights: loading it would pair the
    // fine-tuned head with the pretrained checkpoint.
    return Status::FailedPrecondition(
        "cannot save a fully fine-tuned classifier: its bundle would not "
        "hold the fine-tuned encoder");
  }
  return pipeline::SaveFittedBundle(prefix, adapter_.get(),
                                    config_.adapter_options, *head_, stats_);
}

Status TsfmClassifier::Load(const std::string& prefix, int64_t num_classes) {
  TSFM_ASSIGN_OR_RETURN(
      pipeline::FittedBundle bundle,
      pipeline::LoadFittedBundle(prefix, config_.adapter.has_value(),
                                 model_->embedding_dim(), num_classes));
  if (config_.adapter.has_value() &&
      bundle.adapter->kind() != *config_.adapter) {
    return Status::InvalidArgument(
        "saved adapter kind does not match the classifier configuration");
  }
  adapter_ = std::move(bundle.adapter);
  head_ = std::move(bundle.head);
  stats_ = std::move(bundle.stats);
  num_classes_ = num_classes;
  fitted_model_ = model_;
  TSFM_RETURN_IF_ERROR(RefreshSession());
  fitted_ = true;
  last_result_ = FineTuneResult{};
  return Status::OK();
}

}  // namespace tsfm::finetune
