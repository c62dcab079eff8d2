#ifndef TSFM_EXPERIMENTS_RUNNER_H_
#define TSFM_EXPERIMENTS_RUNNER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "models/pretrained.h"
#include "resources/cost_model.h"

namespace tsfm::experiments {

/// Global experiment configuration, typically derived from the environment:
///   TSFM_BENCH_FAST=1  -> aggressive caps, fewer seeds (CI mode)
///   TSFM_SEEDS=n       -> number of seeds (default 3, as in the paper)
///   TSFM_DATASETS=a,b  -> restrict to named datasets
struct ExperimentConfig {
  bool fast = false;
  int64_t num_seeds = 3;
  int64_t out_channels = 5;  // D' (the paper fixes 5 in Table 2)
  data::GeneratorCaps caps = data::DefaultCaps();
  std::vector<std::string> dataset_filter;  // empty = all 12
  std::string checkpoint_dir = "checkpoints";
};

/// Reads the configuration from environment variables.
ExperimentConfig ConfigFromEnv();

/// One cell of a results table: either a real measured run on the scaled
/// models, or a paper-scale COM/TO verdict when the simulated V100 run
/// would not have completed (mirroring how the paper reports those cells).
struct RunRecord {
  std::string dataset;
  models::ModelKind model_kind;
  std::string method;  // adapter / strategy label
  uint64_t seed = 0;
  resources::ResourceEstimate estimate;  // paper-scale simulation
  /// Set when the simulated verdict was OK and the scaled run executed.
  std::optional<finetune::FineTuneResult> measured;

  bool completed() const { return measured.has_value(); }
  /// Accuracy if completed, NaN otherwise.
  double accuracy() const;
  /// "0.123" or "COM"/"TO".
  std::string CellString() const;
};

/// Specification of a single run in the experiment grid.
struct RunSpec {
  std::string dataset;        // UEA name or abbreviation
  models::ModelKind model_kind = models::ModelKind::kMoment;
  /// nullopt = no adapter in front of the encoder.
  std::optional<core::AdapterKind> adapter;
  finetune::Strategy strategy = finetune::Strategy::kAdapterPlusHead;
  uint64_t seed = 0;
  core::AdapterOptions adapter_options;
};

/// Shared driver: owns the pretrained scaled models (cached on disk) and
/// executes (dataset x model x adapter x strategy x seed) runs, attaching the
/// paper-scale V100 simulation to every record.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }

  /// The datasets selected by the config (paper order).
  std::vector<data::UeaDatasetSpec> Datasets() const;

  /// Lazily pretrains (or loads) the scaled foundation model.
  Result<std::shared_ptr<models::FoundationModel>> GetModel(
      models::ModelKind kind);

  /// Executes one run (or returns its COM/TO verdict without running).
  Result<RunRecord> Run(const RunSpec& spec);

  /// Paper-scale resource estimate for a run, without executing anything.
  resources::ResourceEstimate Estimate(const RunSpec& spec) const;

 private:
  /// Training-regime + channel count the paper-scale simulation should use.
  resources::TrainRegime RegimeFor(const RunSpec& spec) const;

  ExperimentConfig config_;
  std::map<models::ModelKind, std::shared_ptr<models::FoundationModel>>
      models_;
  /// Dataset cache keyed by (name, seed).
  std::map<std::pair<std::string, uint64_t>, data::DatasetPair> datasets_;

  Result<const data::DatasetPair*> GetDataset(const std::string& name,
                                              uint64_t seed);
};

/// Method label used in tables ("no_adapter", "PCA", "lcomb_top_k", ...).
std::string MethodLabel(const std::optional<core::AdapterKind>& adapter,
                        const core::AdapterOptions& options);

}  // namespace tsfm::experiments

#endif  // TSFM_EXPERIMENTS_RUNNER_H_
