#ifndef TSFM_OBS_RUN_REPORT_H_
#define TSFM_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/budget.h"

namespace tsfm::obs {

/// One finished training epoch in a run report's timeline.
struct RunReportEpoch {
  int64_t epoch = 0;
  std::string phase;  // "head" or "joint"
  double loss = 0;
  double accuracy = 0;         // training accuracy over the epoch's batches
  double seconds = 0;
  double pool_live_bytes = 0;  // allocator capacity live at epoch end
};

/// Wall-clock of one pipeline stage (normalize/adapt/embed/head) aggregated
/// over a run's passes, for the report's per-stage timing section.
struct RunReportStage {
  std::string stage;
  double seconds = 0;
};

/// Structured manifest of one fine-tune run: configuration, per-epoch
/// timeline, measured allocator footprint, final result, the paper-scale
/// resource prediction for the same (model, adapter, regime), and the budget
/// verdict. Deliberately made of plain strings/doubles so the obs layer
/// stays a leaf — the finetune/experiments layers fill it in.
struct RunReport {
  std::string command = "classify";  // producing surface ("classify", ...)
  std::string model;                 // scaled model family ("moment", "vit")
  std::string adapter;               // adapter label ("PCA", "none", ...)
  std::string strategy;              // fine-tune strategy name
  int64_t dprime = 0;                // adapter output channels (0 = none)

  /// Hyper-parameters, values pre-rendered as JSON literals ("60", "0.05",
  /// "true") so the writer can emit them typed without a JSON library.
  std::vector<std::pair<std::string, std::string>> options;

  std::vector<RunReportEpoch> epochs;

  /// Per-stage wall-clock of the run's pipeline passes; empty when the run
  /// predates the pipeline layer or no timings were collected.
  std::vector<RunReportStage> stages;

  // measured_memory: resources::MeasuredMemory of the run.
  double mem_baseline_bytes = 0;
  double mem_peak_bytes = 0;
  double mem_acquires = 0;
  double mem_pool_hits = 0;
  double mem_heap_allocs = 0;

  // result: finetune::FineTuneResult of the run.
  double train_accuracy = 0;
  double test_accuracy = 0;
  double final_loss = 0;
  double adapter_fit_seconds = 0;
  double train_seconds = 0;
  double total_seconds = 0;

  // estimate: paper-scale resources::EstimateRun for the same configuration.
  bool has_estimate = false;
  std::string estimate_model;    // paper model name ("MOMENT", "ViT")
  std::string estimate_regime;   // TrainRegimeName
  std::string estimate_verdict;  // VerdictString ("OK", "COM", "TO")
  int64_t estimate_channels = 0;
  std::vector<std::pair<std::string, double>> estimate_values;

  /// Verdict of the measured run against the user's live budget (trivially
  /// "fits" with 100% headroom when no budget was configured).
  BudgetVerdict budget;
};

/// The report as a JSON document (schema_version 3; validated by
/// tools/check_report.py).
std::string RenderRunReportJson(const RunReport& report);

/// Creates `dir` if needed and writes the report to a fresh
/// `run_report_<n>.json` inside it. Returns the written path.
Result<std::string> WriteRunReport(const RunReport& report,
                                   const std::string& dir);

/// Value of TSFM_RUN_REPORT (the report directory), or "" when unset.
std::string RunReportDirFromEnv();

/// Starts a sampler thread that appends one flat JSON line
/// {"t_ms":..., "<metric>":..., ...} of the full metrics snapshot to `path`
/// every `interval_ms`. One sampler per process; returns FailedPrecondition
/// if one is already running.
Status StartMetricsTimeline(const std::string& path, int interval_ms);

/// Stops and joins the sampler thread after a final sample. No-op when no
/// sampler is running.
void StopMetricsTimeline();

/// TSFM_METRICS_TIMELINE=path[,interval_ms] (default interval 200 ms):
/// starts the sampler and registers an atexit StopMetricsTimeline.
/// Idempotent.
void InstallMetricsTimelineFromEnv();

}  // namespace tsfm::obs

#endif  // TSFM_OBS_RUN_REPORT_H_
