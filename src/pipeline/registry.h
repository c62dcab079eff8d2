#ifndef TSFM_PIPELINE_REGISTRY_H_
#define TSFM_PIPELINE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/adapter.h"
#include "data/dataset.h"
#include "models/foundation_model.h"
#include "models/head.h"
#include "pipeline/session.h"

namespace tsfm::pipeline {

// ---------------------------------------------------------------------------
// Artifact naming. A fitted pipeline persists under a prefix as up to three
// files; every layer that touches fitted artifacts goes through these
// helpers instead of hand-concatenating suffixes.

/// `<prefix>.adapter` — fitted adapter state (absent when no adapter).
std::string AdapterArtifactPath(const std::string& prefix);
/// `<prefix>.head` — trained classification-head checkpoint.
std::string HeadArtifactPath(const std::string& prefix);
/// `<prefix>.stats` — training-set normalization statistics.
std::string StatsArtifactPath(const std::string& prefix);

// ---------------------------------------------------------------------------
// Fitted-bundle persistence (the state TsfmClassifier::Save/Load round-trip;
// the foundation-model weights are NOT duplicated — they live in the
// checkpoint referenced by the owning config).

/// Writes adapter (when non-null), head and stats under `prefix`.
Status SaveFittedBundle(const std::string& prefix, const core::Adapter* adapter,
                        const core::AdapterOptions& adapter_options,
                        const models::ClassificationHead& head,
                        const data::ChannelStats& stats);

/// A reloaded fitted bundle, ready to serve behind an InferenceSession or a
/// classifier facade.
struct FittedBundle {
  std::shared_ptr<core::Adapter> adapter;  // null when none was expected
  std::shared_ptr<models::ClassificationHead> head;
  data::ChannelStats stats;
};

/// The adapter a bundle under `prefix` was saved with: nullopt when
/// `<prefix>.adapter` does not exist, otherwise the kind its artifact
/// records. IoError when that artifact is corrupt.
Result<std::optional<core::AdapterKind>> SavedAdapterKind(
    const std::string& prefix);

/// Reads a bundle written by SaveFittedBundle. `expect_adapter` selects
/// whether `<prefix>.adapter` must exist; `embedding_dim`/`num_classes`
/// shape the head the checkpoint is loaded into.
Result<FittedBundle> LoadFittedBundle(const std::string& prefix,
                                      bool expect_adapter,
                                      int64_t embedding_dim,
                                      int64_t num_classes);

// ---------------------------------------------------------------------------
// Named-pipeline registry.

/// Maps names to live InferenceSessions with atomic hot-swap: Install
/// publishes a new session under a name in one mutex-protected pointer
/// store, so concurrent Get callers see either the old or the new session,
/// never a torn state. In-flight predictions on a replaced session finish
/// safely — the shared_ptr keeps the old bundle alive until the last caller
/// drops it.
class Registry {
 public:
  Registry() = default;

  /// The process-wide registry (what the CLI and serving surfaces use).
  static Registry& Instance();

  /// Publishes `session` under `name`, replacing any previous session
  /// atomically. Null sessions are rejected.
  Status Install(const std::string& name,
                 std::shared_ptr<const InferenceSession> session);

  /// The session under `name`, or null when absent.
  std::shared_ptr<const InferenceSession> Get(const std::string& name) const;

  /// Loads the fitted bundle under `prefix` (see LoadFittedBundle), wraps it
  /// with `model` into an InferenceSession, and installs it under `name`.
  /// When `expected_adapter` is set, the reloaded adapter must match that
  /// kind. Returns the installed session.
  Result<std::shared_ptr<const InferenceSession>> LoadAndInstall(
      const std::string& name, const std::string& prefix,
      std::shared_ptr<const models::FoundationModel> model,
      std::optional<core::AdapterKind> expected_adapter, int64_t num_classes,
      SessionOptions options);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const InferenceSession>> sessions_;
};

}  // namespace tsfm::pipeline

#endif  // TSFM_PIPELINE_REGISTRY_H_
