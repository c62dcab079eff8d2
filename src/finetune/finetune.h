#ifndef TSFM_FINETUNE_FINETUNE_H_
#define TSFM_FINETUNE_FINETUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "data/dataset.h"
#include "models/foundation_model.h"
#include "models/head.h"
#include "obs/run_report.h"
#include "pipeline/progress.h"

namespace tsfm::finetune {

/// Fine-tuning strategies from the paper:
///  - kHeadOnly: encoder frozen; the dataset is embedded once and only the
///    linear head is trained (with or without a static adapter in front).
///  - kAdapterPlusHead: the adapter and head are trained; for static
///    adapters this reduces to the embed-once path (the adapter is fitted,
///    not gradient-trained), for lcomb every step runs through the encoder.
///  - kFullFineTune: adapter (if learnable), encoder and head all train.
enum class Strategy { kHeadOnly, kAdapterPlusHead, kFullFineTune };

const char* StrategyName(Strategy strategy);

/// Hyper-parameters of one fine-tuning run.
struct FineTuneOptions {
  Strategy strategy = Strategy::kAdapterPlusHead;
  /// Epochs of head training on cached embeddings (embed-once path).
  int64_t head_epochs = 60;
  /// Epochs of joint training when the encoder is in the loop.
  int64_t joint_epochs = 20;
  int64_t batch_size = 32;
  float head_lr = 5e-2f;
  float joint_lr = 5e-3f;
  float weight_decay = 1e-4f;
  /// Seed for batching, head init, dropout.
  uint64_t seed = 0;
  /// Z-score-normalize with train statistics before the adapter (paper
  /// preprocessing).
  bool normalize = true;
  /// Invoked after every finished training epoch (head and joint phases
  /// alike). Must be cheap and must not mutate the model. Leave empty when
  /// no timeline is wanted — the loops then skip all progress bookkeeping.
  pipeline::EpochCallback on_epoch;
};

/// Outcome of a fine-tuning run on the scaled models (real measured numbers,
/// not the paper-scale simulation — that lives in tsfm::resources).
struct FineTuneResult {
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  double final_loss = 0.0;
  /// Wall-clock seconds: fitting the adapter, embedding/training, total.
  double adapter_fit_seconds = 0.0;
  double train_seconds = 0.0;
  double total_seconds = 0.0;
  /// How the no-grad encoder forwards actually ran: "eager", or "cache"
  /// when every dataset embedding came from the embedding cache and the
  /// encoder never executed. Surfaces in the run report's "execution"
  /// section.
  std::string embed_mode = "eager";
  /// Wall-clock per stage (normalize/adapt/embed/head) in first-run order,
  /// each summed over the run's train and test passes. Becomes the run
  /// report's "stages" section.
  std::vector<obs::RunReportStage> stage_timings;
};

/// Runs one fine-tuning experiment.
///
/// `adapter` may be null (no adapter: all channels go to the encoder).
/// `model`'s parameter values are mutated only under kFullFineTune.
/// Otherwise a joint loop (learnable adapter) clears `requires_grad` on the
/// encoder's parameters for the loop and sets it again on every exit path,
/// so no-grad forwards of the same model on other threads stay safe, but
/// two joint fits on one model must not overlap. Learnable adapters are
/// mutated by training. Returns InvalidArgument on shape mismatches and
/// propagates adapter failures.
///
/// When a live resource budget is configured (obs::SetBudget, or the CLI's
/// --mem-budget / --time-budget), the epoch and embed loops poll it and the
/// run stops early with ResourceExhausted — diagnosis included — instead of
/// blowing the cap.
Result<FineTuneResult> FineTune(models::FoundationModel* model,
                                core::Adapter* adapter,
                                const data::TimeSeriesDataset& train,
                                const data::TimeSeriesDataset& test,
                                const FineTuneOptions& options);

/// Like `FineTune`, but trains into a caller-owned classification head so
/// the fitted (adapter, head) pair can keep serving predictions afterwards
/// (used by `TsfmClassifier`). `head` must map the model's embedding to
/// `train.num_classes` logits.
Result<FineTuneResult> FineTuneWithHead(models::FoundationModel* model,
                                        core::Adapter* adapter,
                                        models::ClassificationHead* head,
                                        const data::TimeSeriesDataset& train,
                                        const data::TimeSeriesDataset& test,
                                        const FineTuneOptions& options);

}  // namespace tsfm::finetune

#endif  // TSFM_FINETUNE_FINETUNE_H_
