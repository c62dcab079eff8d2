#include "pipeline/registry.h"

#include <sstream>
#include <utility>

#include "core/io_util.h"
#include "io/artifact.h"
#include "nn/serialize.h"

namespace tsfm::pipeline {

namespace {

// Normalization-statistics file: two tensors (mean, std) inside the
// integrity-checked artifact container.
constexpr uint64_t kStatsMagic = 0x3241545345465354ULL;  // "TSFESTA2"
constexpr uint32_t kStatsVersion = 2;

}  // namespace

std::string AdapterArtifactPath(const std::string& prefix) {
  return prefix + ".adapter";
}

std::string HeadArtifactPath(const std::string& prefix) {
  return prefix + ".head";
}

std::string StatsArtifactPath(const std::string& prefix) {
  return prefix + ".stats";
}

Status SaveFittedBundle(const std::string& prefix, const core::Adapter* adapter,
                        const core::AdapterOptions& adapter_options,
                        const models::ClassificationHead& head,
                        const data::ChannelStats& stats) {
  if (adapter != nullptr) {
    TSFM_RETURN_IF_ERROR(core::SaveAdapter(*adapter, adapter_options,
                                           AdapterArtifactPath(prefix)));
  }
  TSFM_RETURN_IF_ERROR(nn::SaveCheckpoint(head, HeadArtifactPath(prefix)));
  std::ostringstream os;
  core::io::WriteTensor(&os, stats.mean);
  core::io::WriteTensor(&os, stats.std);
  if (!os) return Status::IoError("stats serialization failed");
  return io::WriteArtifact(StatsArtifactPath(prefix), kStatsMagic,
                           kStatsVersion, os.str());
}

Result<std::optional<core::AdapterKind>> SavedAdapterKind(
    const std::string& prefix) {
  Result<std::unique_ptr<core::Adapter>> adapter =
      core::LoadAdapter(AdapterArtifactPath(prefix));
  if (adapter.status().code() == StatusCode::kNotFound) {
    return std::optional<core::AdapterKind>();
  }
  TSFM_RETURN_IF_ERROR(adapter.status());
  return std::optional<core::AdapterKind>((*adapter)->kind());
}

Result<int64_t> SavedNumClasses(const std::string& prefix) {
  const std::string path = HeadArtifactPath(prefix);
  TSFM_ASSIGN_OR_RETURN(const auto shapes, nn::ReadCheckpointShapes(path));
  const auto it = shapes.find("fc/weight");
  if (it == shapes.end() || it->second.size() != 2) {
    return Status::IoError("head checkpoint " + path +
                           " has no fc/weight matrix");
  }
  return it->second[1];
}

Result<FittedBundle> LoadFittedBundle(const std::string& prefix,
                                      bool expect_adapter,
                                      int64_t embedding_dim,
                                      int64_t num_classes) {
  if (num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  FittedBundle bundle;
  if (expect_adapter) {
    TSFM_ASSIGN_OR_RETURN(std::unique_ptr<core::Adapter> adapter,
                          core::LoadAdapter(AdapterArtifactPath(prefix)));
    bundle.adapter = std::move(adapter);
  }
  Rng head_rng(0);  // weights are overwritten by the checkpoint below
  bundle.head = std::make_shared<models::ClassificationHead>(
      embedding_dim, num_classes, &head_rng);
  TSFM_RETURN_IF_ERROR(
      nn::LoadCheckpoint(bundle.head.get(), HeadArtifactPath(prefix)));
  TSFM_ASSIGN_OR_RETURN(
      const std::string stats_payload,
      io::ReadArtifactPayload(StatsArtifactPath(prefix), kStatsMagic,
                              kStatsVersion));
  std::istringstream is(stats_payload);
  TSFM_RETURN_IF_ERROR(core::io::ReadTensor(&is, &bundle.stats.mean));
  TSFM_RETURN_IF_ERROR(core::io::ReadTensor(&is, &bundle.stats.std));
  return bundle;
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

Status Registry::Install(const std::string& name,
                         std::shared_ptr<const InferenceSession> session) {
  if (session == nullptr) {
    return Status::InvalidArgument("cannot install a null session");
  }
  if (name.empty()) {
    return Status::InvalidArgument("pipeline name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  sessions_[name] = std::move(session);
  return Status::OK();
}

std::shared_ptr<const InferenceSession> Registry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  return it != sessions_.end() ? it->second : nullptr;
}

Result<std::shared_ptr<const InferenceSession>> Registry::LoadAndInstall(
    const std::string& name, const std::string& prefix,
    std::shared_ptr<const models::FoundationModel> model,
    std::optional<core::AdapterKind> expected_adapter, int64_t num_classes,
    SessionOptions options) {
  if (model == nullptr) {
    return Status::InvalidArgument("LoadAndInstall needs a model");
  }
  TSFM_ASSIGN_OR_RETURN(
      FittedBundle bundle,
      LoadFittedBundle(prefix, expected_adapter.has_value(),
                       model->embedding_dim(), num_classes));
  if (expected_adapter.has_value() &&
      bundle.adapter->kind() != *expected_adapter) {
    return Status::InvalidArgument(
        "saved adapter kind does not match the expected kind");
  }
  TSFM_ASSIGN_OR_RETURN(
      std::shared_ptr<const InferenceSession> session,
      InferenceSession::Create(std::move(model), bundle.adapter, bundle.head,
                               std::move(bundle.stats), num_classes, options));
  TSFM_RETURN_IF_ERROR(Install(name, session));
  return session;
}

}  // namespace tsfm::pipeline
