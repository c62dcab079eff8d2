#include "experiments/runner.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/budget.h"
#include "obs/run_report.h"
#include "resources/measured.h"

namespace tsfm::experiments {

namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

ExperimentConfig ConfigFromEnv() {
  ExperimentConfig config;
  if (const char* fast = std::getenv("TSFM_BENCH_FAST");
      fast != nullptr && std::string(fast) == "1") {
    config.fast = true;
    config.caps = data::FastCaps();
    config.num_seeds = 2;
  }
  if (const char* seeds = std::getenv("TSFM_SEEDS"); seeds != nullptr) {
    config.num_seeds = std::max<int64_t>(1, std::atoll(seeds));
  }
  if (const char* ds = std::getenv("TSFM_DATASETS"); ds != nullptr) {
    config.dataset_filter = SplitCsv(ds);
  }
  if (const char* dir = std::getenv("TSFM_CHECKPOINT_DIR"); dir != nullptr) {
    config.checkpoint_dir = dir;
  }
  return config;
}

double RunRecord::accuracy() const {
  if (!measured.has_value()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return measured->test_accuracy;
}

std::string RunRecord::CellString() const {
  if (!completed()) return resources::VerdictString(estimate.verdict);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", measured->test_accuracy);
  return buf;
}

std::string MethodLabel(const std::optional<core::AdapterKind>& adapter,
                        const core::AdapterOptions& options) {
  if (!adapter.has_value()) return "no_adapter";
  if (*adapter == core::AdapterKind::kPca) {
    if (options.pca_patch_window > 1) {
      return "PatchPCA_" + std::to_string(options.pca_patch_window);
    }
    return options.pca_scale ? "ScaledPCA" : "PCA";
  }
  return core::AdapterKindName(*adapter);
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {}

std::vector<data::UeaDatasetSpec> ExperimentRunner::Datasets() const {
  std::vector<data::UeaDatasetSpec> out;
  for (const auto& spec : data::UeaSpecs()) {
    if (config_.dataset_filter.empty()) {
      out.push_back(spec);
      continue;
    }
    for (const auto& want : config_.dataset_filter) {
      if (spec.name == want || spec.abbrev == want) {
        out.push_back(spec);
        break;
      }
    }
  }
  return out;
}

Result<std::shared_ptr<models::FoundationModel>> ExperimentRunner::GetModel(
    models::ModelKind kind) {
  auto it = models_.find(kind);
  if (it != models_.end()) return it->second;

  models::FoundationModelConfig model_config =
      kind == models::ModelKind::kMoment ? models::MomentSmallConfig()
                                         : models::VitSmallConfig();
  models::PretrainOptions pretrain;
  if (config_.fast) {
    pretrain.corpus_size = 256;
    pretrain.epochs = 2;
  }
  std::string cache;
  if (!config_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    cache = config_.checkpoint_dir + "/" +
            std::string(models::ModelKindName(kind)) +
            (config_.fast ? "_fast" : "_small") + ".ckpt";
  }
  TSFM_ASSIGN_OR_RETURN(std::shared_ptr<models::FoundationModel> model,
                        models::LoadOrPretrain(kind, model_config, pretrain,
                                               cache));
  models_.emplace(kind, model);
  return model;
}

Result<const data::DatasetPair*> ExperimentRunner::GetDataset(
    const std::string& name, uint64_t seed) {
  const auto key = std::make_pair(name, seed);
  auto it = datasets_.find(key);
  if (it == datasets_.end()) {
    TSFM_ASSIGN_OR_RETURN(data::UeaDatasetSpec spec, data::FindUeaSpec(name));
    it = datasets_
             .emplace(key, data::GenerateUeaLike(spec, seed, config_.caps))
             .first;
  }
  return &it->second;
}

resources::TrainRegime ExperimentRunner::RegimeFor(const RunSpec& spec) const {
  const bool learnable =
      spec.adapter.has_value() &&
      (*spec.adapter == core::AdapterKind::kLcomb ||
       *spec.adapter == core::AdapterKind::kLcombTopK);
  if (spec.strategy == finetune::Strategy::kFullFineTune) {
    return resources::TrainRegime::kFullFineTune;
  }
  if (learnable) return resources::TrainRegime::kAdapterPlusHeadLearnable;
  return resources::TrainRegime::kEmbedOnceHeadOnly;
}

resources::ResourceEstimate ExperimentRunner::Estimate(
    const RunSpec& spec) const {
  auto spec_or = data::FindUeaSpec(spec.dataset);
  TSFM_CHECK(spec_or.ok()) << spec_or.status().ToString();
  const data::UeaDatasetSpec& ds = *spec_or;

  const resources::PaperModelSpec model =
      spec.model_kind == models::ModelKind::kMoment
          ? resources::MomentPaperSpec()
          : resources::VitPaperSpec();
  // Channels the paper-scale encoder sees: D' behind an adapter, D without.
  // Identity adapters keep all channels.
  int64_t channels = ds.channels;
  if (spec.adapter.has_value() &&
      *spec.adapter != core::AdapterKind::kNone) {
    channels = std::min(channels, spec.adapter_options.out_channels);
  }
  resources::Workload workload{ds.train_size, ds.test_size, channels};
  return resources::EstimateRun(model, resources::V100Spec(), workload,
                                RegimeFor(spec));
}

Result<RunRecord> ExperimentRunner::Run(const RunSpec& spec) {
  RunRecord record;
  record.dataset = spec.dataset;
  record.model_kind = spec.model_kind;
  record.method = MethodLabel(spec.adapter, spec.adapter_options);
  record.seed = spec.seed;
  record.estimate = Estimate(spec);
  if (record.estimate.verdict != resources::Verdict::kOk) {
    // The paper-scale run would have died with COM/TO: report the verdict
    // without burning compute, exactly as the paper's tables do.
    return record;
  }

  TSFM_ASSIGN_OR_RETURN(std::shared_ptr<models::FoundationModel> model,
                        GetModel(spec.model_kind));
  if (spec.strategy == finetune::Strategy::kFullFineTune) {
    // Full fine-tuning mutates the encoder: give the run its own copy of the
    // pretrained weights instead of polluting the shared cached model.
    model = models::CopyModel(spec.model_kind, *model);
  }
  TSFM_ASSIGN_OR_RETURN(const data::DatasetPair* pair,
                        GetDataset(spec.dataset, spec.seed));

  std::unique_ptr<core::Adapter> adapter;
  if (spec.adapter.has_value()) {
    core::AdapterOptions options = spec.adapter_options;
    options.seed = spec.seed * 7919 + 17;
    // Clamp D' to the realized channel count (caps may shrink tiny datasets).
    options.out_channels =
        std::min(options.out_channels, pair->train.channels());
    adapter = core::CreateAdapter(*spec.adapter, options);
  }

  finetune::FineTuneOptions ft;
  ft.strategy = spec.strategy;
  ft.seed = spec.seed;
  if (config_.fast) {
    ft.head_epochs = 30;
    ft.joint_epochs = 14;
  }

  // When TSFM_RUN_REPORT names a directory, every measured run of a sweep
  // leaves a manifest there: per-epoch timeline, allocator footprint, the
  // paper-scale prediction already computed above, and the budget verdict.
  const std::string report_dir = obs::RunReportDirFromEnv();
  obs::RunReport report;
  if (!report_dir.empty()) {
    report.command = "experiment";
    report.model = models::ModelKindName(spec.model_kind);
    report.adapter = record.method;
    report.strategy = finetune::StrategyName(spec.strategy);
    report.dprime = adapter != nullptr
                        ? std::min(spec.adapter_options.out_channels,
                                   pair->train.channels())
                        : 0;
    report.options = {
        {"dataset", "\"" + spec.dataset + "\""},
        {"head_epochs", std::to_string(ft.head_epochs)},
        {"joint_epochs", std::to_string(ft.joint_epochs)},
        {"batch_size", std::to_string(ft.batch_size)},
        {"seed", std::to_string(static_cast<int64_t>(ft.seed))},
    };
    ft.on_epoch = [&report](const pipeline::EpochProgress& p) {
      obs::RunReportEpoch e;
      e.epoch = p.epoch;
      e.phase = pipeline::PhaseName(p.phase);
      e.loss = p.loss;
      e.accuracy = p.accuracy;
      e.seconds = p.seconds;
      e.pool_live_bytes = static_cast<double>(p.pool_live_bytes);
      report.epochs.push_back(std::move(e));
    };
  }

  Result<finetune::FineTuneResult> measured =
      Status::Internal("run did not start");
  const resources::MeasuredMemory mem = resources::MeasurePeak([&] {
    measured = finetune::FineTune(model.get(), adapter.get(), pair->train,
                                  pair->test, ft);
  });
  TSFM_RETURN_IF_ERROR(measured.status());
  record.measured = *measured;

  if (!report_dir.empty()) {
    report.mem_baseline_bytes = static_cast<double>(mem.baseline_bytes);
    report.mem_peak_bytes = static_cast<double>(mem.peak_bytes);
    report.mem_acquires = static_cast<double>(mem.acquires);
    report.mem_pool_hits = static_cast<double>(mem.pool_hits);
    report.mem_heap_allocs = static_cast<double>(mem.heap_allocs);
    report.stages = measured->stage_timings;
    report.train_accuracy = measured->train_accuracy;
    report.test_accuracy = measured->test_accuracy;
    report.final_loss = measured->final_loss;
    report.adapter_fit_seconds = measured->adapter_fit_seconds;
    report.train_seconds = measured->train_seconds;
    report.total_seconds = measured->total_seconds;
    report.has_estimate = true;
    report.estimate_model =
        spec.model_kind == models::ModelKind::kMoment
            ? resources::MomentPaperSpec().name
            : resources::VitPaperSpec().name;
    report.estimate_regime = resources::TrainRegimeName(RegimeFor(spec));
    report.estimate_verdict =
        resources::VerdictString(record.estimate.verdict);
    report.estimate_channels = report.dprime > 0 ? report.dprime
                                                 : pair->train.channels();
    report.estimate_values = {
        {"param_bytes", record.estimate.param_bytes},
        {"optimizer_bytes", record.estimate.optimizer_bytes},
        {"activation_bytes", record.estimate.activation_bytes},
        {"attention_bytes", record.estimate.attention_bytes},
        {"peak_memory_bytes", record.estimate.peak_memory_bytes},
        {"total_flops", record.estimate.total_flops},
        {"total_seconds", record.estimate.total_seconds},
    };
    report.budget = obs::JudgeBudget(
        obs::CurrentBudget(),
        static_cast<double>(mem.baseline_bytes + mem.peak_bytes),
        measured->total_seconds);
    const Result<std::string> path = obs::WriteRunReport(report, report_dir);
    if (!path.ok()) {
      std::fprintf(stderr, "run report not written: %s\n",
                   path.status().ToString().c_str());
    }
  }
  return record;
}

}  // namespace tsfm::experiments
