#include "finetune/finetune.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/budget.h"
#include "obs/trace.h"
#include "optim/optim.h"
#include "pipeline/stages.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm::finetune {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Argmax predictions of a logits matrix (N, C).
std::vector<int64_t> Predict(const Tensor& logits) { return ArgMaxLast(logits); }

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

// Non-owning shared_ptr over a caller-owned object, so the stages (which
// hold shared ownership) can wrap state the FineTune API receives as raw
// pointers. The stages live only within this call.
template <typename T>
std::shared_ptr<T> Unowned(T* ptr) {
  return std::shared_ptr<T>(ptr, [](T*) {});
}

// One stage pass: a trace span named after the stage, and the pass's
// wall-clock added to that stage's row of `timings` when the scope ends.
// Rows keep first-run order, so a stage's train and test passes share one.
// `stage` must be a string literal: the trace keeps the pointer.
class StagePass {
 public:
  StagePass(const char* stage, std::vector<obs::RunReportStage>* timings)
      : span_(stage), stage_(stage), timings_(timings) {}
  ~StagePass() {
    const double seconds = SecondsSince(start_);
    for (obs::RunReportStage& row : *timings_) {
      if (row.stage == stage_) {
        row.seconds += seconds;
        return;
      }
    }
    timings_->push_back(obs::RunReportStage{stage_, seconds});
  }
  StagePass(const StagePass&) = delete;
  StagePass& operator=(const StagePass&) = delete;

 private:
  obs::TraceSpan span_;
  const char* stage_;
  std::vector<obs::RunReportStage>* timings_;
  Clock::time_point start_ = Clock::now();
};

// Clears `requires_grad` on the given parameter leaves for its lifetime, so
// backward stops at their weights while activation gradients still flow
// through them. Module parameters always require grad outside this scope,
// so the destructor sets the flag back on every exit path.
class FreezeParameters {
 public:
  explicit FreezeParameters(std::vector<ag::Var> params)
      : params_(std::move(params)) {
    for (ag::Var& p : params_) p.set_requires_grad(false);
  }
  ~FreezeParameters() {
    for (ag::Var& p : params_) p.set_requires_grad(true);
  }
  FreezeParameters(const FreezeParameters&) = delete;
  FreezeParameters& operator=(const FreezeParameters&) = delete;

 private:
  std::vector<ag::Var> params_;
};

}  // namespace

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kHeadOnly:
      return "head_only";
    case Strategy::kAdapterPlusHead:
      return "adapter_plus_head";
    case Strategy::kFullFineTune:
      return "full_fine_tune";
  }
  return "unknown";
}

Result<FineTuneResult> FineTune(models::FoundationModel* model,
                                core::Adapter* adapter,
                                const data::TimeSeriesDataset& train,
                                const data::TimeSeriesDataset& test,
                                const FineTuneOptions& options) {
  TSFM_RETURN_IF_ERROR(data::Validate(train));
  Rng head_seed_rng(options.seed ^ 0x51A7E5ULL);
  Rng head_rng = head_seed_rng.Fork();
  models::ClassificationHead head(model->embedding_dim(), train.num_classes,
                                  &head_rng);
  return FineTuneWithHead(model, adapter, &head, train, test, options);
}

Result<FineTuneResult> FineTuneWithHead(models::FoundationModel* model,
                                        core::Adapter* adapter,
                                        models::ClassificationHead* head_ptr,
                                        const data::TimeSeriesDataset& train,
                                        const data::TimeSeriesDataset& test,
                                        const FineTuneOptions& options) {
  TSFM_RETURN_IF_ERROR(data::Validate(train));
  TSFM_RETURN_IF_ERROR(data::Validate(test));
  if (train.channels() != test.channels() ||
      train.num_classes != test.num_classes) {
    return Status::InvalidArgument("train/test splits are inconsistent");
  }
  TSFM_CHECK(head_ptr != nullptr);
  // The budget window covers this run only: clock restarted, allocator peak
  // rebased to the current live footprint (weights still count).
  obs::BeginBudgetRun();
  const auto t_start = Clock::now();
  FineTuneResult result;

  pipeline::NormalizeStage norm;
  std::optional<pipeline::AdaptStage> adapt;
  if (adapter != nullptr) adapt.emplace(Unowned(adapter));
  std::vector<obs::RunReportStage>* timings = &result.stage_timings;

  Rng rng(options.seed ^ 0x51A7E5ULL);
  (void)rng.Fork();  // head-init stream consumed by FineTune's wrapper

  const bool learnable_adapter = adapter != nullptr && adapter->IsLearnable();
  const bool encoder_in_loop =
      options.strategy == Strategy::kFullFineTune || learnable_adapter;

  pipeline::ExecutionContext ctx;
  ctx.batch_size = options.batch_size;
  ctx.rng = &rng;
  ctx.on_epoch = options.on_epoch;

  if (!encoder_in_loop) {
    // Embed-once path: static adapter (or none) + frozen encoder. The train
    // split runs normalize -> adapt -> embed -> head, each stage fitted on
    // what the stages before it produced and then applied; the test split
    // then runs the fitted stages.
    pipeline::EmbedStage embed(Unowned<const models::FoundationModel>(model));
    pipeline::HeadStage head(
        Unowned(head_ptr), model->embedding_dim(), train.num_classes,
        pipeline::HeadTrainOptions{options.head_epochs, options.head_lr,
                                   options.weight_decay});
    ctx.allow_embed_cache = true;
    ctx.cache_salt = std::string(StrategyName(options.strategy)) + "/" +
                     (adapter != nullptr ? adapter->name() : "no_adapter");
    ctx.cache_stats = options.normalize ? &norm.stats() : nullptr;

    // Logits of one split; `fit` fits every stage first. `embed_mode`
    // receives how that split's embed pass ran.
    auto run = [&](const data::TimeSeriesDataset& ds, bool fit,
                   std::string* embed_mode) -> Result<Tensor> {
      pipeline::ExecutionContext split_ctx = ctx;
      split_ctx.embed_mode = embed_mode;
      Tensor x = ds.x;
      auto pass = [&](const char* name, auto& stage) -> Status {
        StagePass timed(name, timings);
        if (fit) TSFM_RETURN_IF_ERROR(stage.Fit(x, ds.y, split_ctx));
        TSFM_ASSIGN_OR_RETURN(x, stage.Apply(x, split_ctx));
        return Status::OK();
      };
      if (options.normalize) TSFM_RETURN_IF_ERROR(pass("normalize", norm));
      if (adapt.has_value()) TSFM_RETURN_IF_ERROR(pass("adapt", *adapt));
      TSFM_RETURN_IF_ERROR(pass("embed", embed));
      TSFM_RETURN_IF_ERROR(pass("head", head));
      return x;
    };

    std::string train_mode = result.embed_mode;
    std::string test_mode = result.embed_mode;
    const auto t_train = Clock::now();
    TSFM_ASSIGN_OR_RETURN(Tensor train_logits,
                          run(train, /*fit=*/true, &train_mode));
    result.final_loss = head.final_loss();
    result.adapter_fit_seconds =
        adapt.has_value() ? adapt->last_fit_seconds() : 0.0;
    result.train_seconds = SecondsSince(t_train);
    result.train_accuracy = data::Accuracy(Predict(train_logits), train);

    TSFM_ASSIGN_OR_RETURN(Tensor test_logits,
                          run(test, /*fit=*/false, &test_mode));
    result.test_accuracy = data::Accuracy(Predict(test_logits), test);
    // "cache" only when the encoder truly never ran for either split.
    result.embed_mode = (train_mode == "cache" && test_mode == "cache")
                            ? "cache"
                            : result.embed_mode;
    result.total_seconds = SecondsSince(t_start);
    return result;
  }

  // Joint loop: encoder in the training graph (lcomb and/or full FT). The
  // prologue runs the normalize and adapter-fit stages under the same spans
  // and timing rows as the embed-once path; each step then drives the
  // encoder through the tape.
  models::ClassificationHead& head = *head_ptr;
  data::TimeSeriesDataset train_n = train;
  data::TimeSeriesDataset test_n = test;
  if (options.normalize) {
    {
      StagePass timed("normalize", timings);
      TSFM_RETURN_IF_ERROR(norm.Fit(train.x, train.y, ctx));
      TSFM_ASSIGN_OR_RETURN(train_n.x, norm.Apply(train.x, ctx));
    }
    StagePass timed("normalize", timings);
    TSFM_ASSIGN_OR_RETURN(test_n.x, norm.Apply(test.x, ctx));
  }
  if (adapt.has_value()) {
    StagePass timed("adapt", timings);
    TSFM_RETURN_IF_ERROR(adapt->Fit(train_n.x, train_n.y, ctx));
    result.adapter_fit_seconds = adapt->last_fit_seconds();
  }

  // Two parameter groups: the head keeps its (large) head_lr while the
  // adapter/encoder train at the smaller joint_lr — a single small lr
  // starves the randomly initialized head.
  std::vector<ag::Var> slow_params;
  if (learnable_adapter) {
    for (auto& p : adapter->TrainableParameters()) slow_params.push_back(p);
  }
  if (options.strategy == Strategy::kFullFineTune) {
    for (auto& p : model->Parameters()) slow_params.push_back(p);
  }
  std::vector<ag::Var> trainable = head.Parameters();
  trainable.insert(trainable.end(), slow_params.begin(), slow_params.end());
  optim::AdamW head_opt(head.Parameters(), options.head_lr, 0.9f, 0.999f,
                        1e-8f, options.weight_decay);
  std::unique_ptr<optim::AdamW> slow_opt;
  if (!slow_params.empty()) {
    slow_opt = std::make_unique<optim::AdamW>(slow_params, options.joint_lr,
                                              0.9f, 0.999f, 1e-8f,
                                              options.weight_decay);
  }

  // Outside full fine-tuning the encoder is frozen, as in the paper: its
  // weight gradients would only be computed and thrown away.
  const FreezeParameters frozen_encoder(
      options.strategy == Strategy::kFullFineTune ? std::vector<ag::Var>{}
                                                  : model->Parameters());

  const auto t_train = Clock::now();
  double last = 0.0;
  for (int64_t epoch = 0; epoch < options.joint_epochs; ++epoch) {
    TSFM_TRACE_SPAN("finetune.joint_epoch");
    const auto t_epoch = Clock::now();
    auto batches =
        data::MakeBatches(train_n.size(), options.batch_size, &rng);
    double loss_sum = 0.0;
    int64_t correct = 0;
    for (const auto& idx : batches) {
      Tensor xb = TakeRows(train_n.x, idx);
      std::vector<int64_t> yb;
      yb.reserve(idx.size());
      for (int64_t i : idx) yb.push_back(train_n.y[static_cast<size_t>(i)]);
      nn::ForwardContext fwd{/*training=*/true, &rng};
      ag::Var input = ag::Constant(xb);
      if (adapter != nullptr) input = adapter->TransformVar(input);
      ag::Var emb = model->EncodeChannels(input, fwd);
      ag::Var logits = head.Forward(emb);
      ag::Var loss = ag::CrossEntropy(logits, yb);
      loss.Backward();
      optim::ClipGradNorm(trainable, 5.0f);
      head_opt.Step();
      if (slow_opt != nullptr) slow_opt->Step();
      head_opt.ZeroGrad();
      if (slow_opt != nullptr) slow_opt->ZeroGrad();
      loss_sum += loss.value()[0];
      if (options.on_epoch) correct += CountCorrect(logits.value(), yb);
    }
    pipeline::RecordSteps(static_cast<int64_t>(batches.size()));
    last = loss_sum / static_cast<double>(batches.size());
    TSFM_RETURN_IF_ERROR(pipeline::FinishEpoch(
        options.on_epoch, pipeline::Phase::kJoint, epoch, options.joint_epochs,
        SecondsSince(t_epoch), last, correct, train_n.size()));
  }
  result.final_loss = last;
  result.train_seconds = SecondsSince(t_train);

  // Evaluate end-to-end. Batches are independent under NoGrad, so they
  // run in parallel; per-batch predictions are stitched together in batch
  // order so the result matches the serial loop.
  auto evaluate = [&](const data::TimeSeriesDataset& ds) -> Result<double> {
    TSFM_TRACE_SPAN("finetune.evaluate");
    const int64_t bs = std::max<int64_t>(1, options.batch_size);
    const int64_t num_batches = (ds.size() + bs - 1) / bs;
    std::vector<std::vector<int64_t>> batch_preds(
        static_cast<size_t>(num_batches));
    runtime::ParallelFor(0, num_batches, /*grain=*/1, [&](int64_t lo,
                                                          int64_t hi) {
      ag::NoGradGuard guard;
      const nn::ForwardContext fwd{/*training=*/false, /*rng=*/nullptr};
      for (int64_t b = lo; b < hi; ++b) {
        const int64_t start = b * bs;
        const int64_t end = std::min(ds.size(), start + bs);
        Tensor xb = Slice(ds.x, 0, start, end);
        ag::Var input = ag::Constant(xb);
        if (adapter != nullptr) input = adapter->TransformVar(input);
        ag::Var emb = model->EncodeChannels(input, fwd);
        ag::Var logits = head.Forward(emb);
        batch_preds[static_cast<size_t>(b)] = Predict(logits.value());
      }
    });
    std::vector<int64_t> preds;
    preds.reserve(static_cast<size_t>(ds.size()));
    for (const auto& bp : batch_preds) {
      preds.insert(preds.end(), bp.begin(), bp.end());
    }
    return data::Accuracy(preds, ds);
  };
  TSFM_ASSIGN_OR_RETURN(result.train_accuracy, evaluate(train_n));
  TSFM_ASSIGN_OR_RETURN(result.test_accuracy, evaluate(test_n));
  result.total_seconds = SecondsSince(t_start);
  return result;
}

}  // namespace tsfm::finetune
