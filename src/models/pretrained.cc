#include "models/pretrained.h"

#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "nn/serialize.h"

namespace tsfm::models {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMoment:
      return "MOMENT";
    case ModelKind::kVit:
      return "ViT";
  }
  return "unknown";
}

namespace {

std::shared_ptr<FoundationModel> NewModel(ModelKind kind,
                                          const FoundationModelConfig& config,
                                          uint64_t init_seed) {
  Rng init_rng(init_seed);
  if (kind == ModelKind::kMoment) {
    return std::make_shared<MomentModel>(config, &init_rng);
  }
  return std::make_shared<VitModel>(config, &init_rng);
}

}  // namespace

std::shared_ptr<FoundationModel> CopyModel(ModelKind kind,
                                           const FoundationModel& source) {
  std::shared_ptr<FoundationModel> copy =
      NewModel(kind, source.config(), /*init_seed=*/0);
  const std::vector<ag::Var> from = source.Parameters();
  std::vector<ag::Var> to = copy->Parameters();
  TSFM_CHECK_EQ(from.size(), to.size()) << "CopyModel: kind does not match";
  for (size_t i = 0; i < to.size(); ++i) to[i].SetValue(from[i].value());
  return copy;
}

Result<std::shared_ptr<FoundationModel>> LoadOrPretrain(
    ModelKind kind, const FoundationModelConfig& config,
    const PretrainOptions& options, const std::string& cache_path,
    uint64_t init_seed) {
  std::shared_ptr<FoundationModel> model = NewModel(kind, config, init_seed);

  if (!cache_path.empty()) {
    std::ifstream probe(cache_path, std::ios::binary);
    if (probe.good()) {
      probe.close();
      Status s = nn::LoadCheckpoint(model.get(), cache_path);
      if (s.ok()) return model;
      // Stale/incompatible checkpoint: fall through and re-pretrain.
    }
  }

  TSFM_ASSIGN_OR_RETURN(double final_loss, model->Pretrain(options));
  (void)final_loss;
  if (!cache_path.empty()) {
    const auto parent = std::filesystem::path(cache_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    TSFM_RETURN_IF_ERROR(nn::SaveCheckpoint(*model, cache_path));
  }
  return model;
}

}  // namespace tsfm::models
