#ifndef TSFM_PIPELINE_STAGE_H_
#define TSFM_PIPELINE_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "pipeline/progress.h"
#include "tensor/tensor.h"

namespace tsfm::pipeline {

/// Wall-clock of one stage's work inside a pipeline pass, keyed by the
/// stage's static name. Feeds the run report's per-stage timing section.
struct StageTiming {
  std::string stage;
  double seconds = 0;
};

/// Per-run context threading the shared infrastructure — embedding cache
/// gating, budget polling, trace/timing sinks, RNG — through every stage,
/// instead of each call site reaching for globals and environment variables
/// ad hoc. Plain value type: drivers copy it and tweak fields per pass.
struct ExecutionContext {
  /// Mini-batch size for stages that process samples in chunks (embed, head
  /// training).
  int64_t batch_size = 32;
  /// Seed for stages that consume randomness (embed forward contexts, head
  /// batching when `rng` is unset).
  uint64_t seed = 0;

  /// Allow EmbedStage to serve/store dataset embeddings through the
  /// content-addressed cache (io::EmbedCache*). Off for per-request
  /// inference, on for dataset-level fine-tune embeds.
  bool allow_embed_cache = false;
  /// Strategy/adapter tag folded into the embed cache key so unrelated
  /// pipelines can never share an entry even on a hash fluke.
  std::string cache_salt;
  /// Normalization statistics the input was produced with; folded into the
  /// embed cache key so a refit with different train stats on the same raw
  /// tensor can never hit a stale entry. Null when no normalization ran.
  const data::ChannelStats* cache_stats = nullptr;

  /// When non-null, receives how the embed stage actually ran: "cache" on a
  /// cache hit, otherwise "eager".
  std::string* embed_mode = nullptr;
  /// When non-null, every stage pass accumulates its wall-clock here
  /// (entries aggregate by stage name across passes).
  std::vector<StageTiming>* timings = nullptr;

  /// Batching/shuffling stream for training stages; falls back to a local
  /// Rng(seed) when null. Drivers pass their own stream to preserve exact
  /// RNG sequences across refactors.
  Rng* rng = nullptr;
  /// Epoch-progress callback for training stages (HeadStage::Fit).
  EpochCallback on_epoch;
};

/// One step of the load→normalize→adapt→embed→head pipeline.
///
/// A stage owns its fitted state (statistics, adapter matrices, trained
/// weights) and exposes a uniform Fit/Apply surface so drivers — the
/// fine-tune loops, the classifier facade, `tsfm pipeline describe`, and
/// the serving runtime — can compose, time, inspect and persist pipelines
/// without knowing what is inside each step.
///
/// Thread-safety contract: `Apply` on a *fitted* stage is const and safe to
/// call concurrently from many threads; `Fit` is exclusive (no concurrent
/// Fit/Apply on the same stage).
class Stage {
 public:
  virtual ~Stage() = default;

  Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Static identifier ("normalize", "adapt", "embed", "head"). Must have
  /// static storage duration — it is handed to trace spans, which keep the
  /// pointer.
  virtual const char* name() const = 0;

  /// Human-readable shape contract, e.g. "(N,T,D)->(N,T,5)". For the
  /// `pipeline describe` surface; not parsed.
  virtual std::string ShapeSignature() const = 0;

  /// True once Fit succeeded (stages without fitted state are born fitted).
  virtual bool fitted() const = 0;

  /// Bytes of fitted state this stage owns (0 when unfitted or stateless).
  virtual int64_t FittedStateBytes() const = 0;

  /// Fits the stage on `x` — the output of every stage before it — with
  /// labels `y` (ignored by unsupervised stages).
  virtual Status Fit(const Tensor& x, const std::vector<int64_t>& y,
                     const ExecutionContext& ctx) = 0;

  /// Applies the fitted stage to `x`. Requires fitted().
  virtual Result<Tensor> Apply(const Tensor& x,
                               const ExecutionContext& ctx) const = 0;
};

}  // namespace tsfm::pipeline

#endif  // TSFM_PIPELINE_STAGE_H_
