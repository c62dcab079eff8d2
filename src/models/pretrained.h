#ifndef TSFM_MODELS_PRETRAINED_H_
#define TSFM_MODELS_PRETRAINED_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "models/moment.h"
#include "models/vit.h"

namespace tsfm::models {

/// Model families provided by the library.
enum class ModelKind { kMoment, kVit };

const char* ModelKindName(ModelKind kind);

/// Returns a pretrained model of `kind`, loading weights from
/// `cache_path` if present, otherwise pretraining from scratch (per
/// `options`) and saving the checkpoint. This stands in for downloading the
/// HuggingFace MOMENT checkpoint: the expensive pretraining happens once per
/// machine and is reused afterwards.
///
/// `init_seed` controls the weight initialization (and hence the identity of
/// the "published checkpoint"). Pass an empty `cache_path` to skip caching.
Result<std::shared_ptr<FoundationModel>> LoadOrPretrain(
    ModelKind kind, const FoundationModelConfig& config,
    const PretrainOptions& options, const std::string& cache_path,
    uint64_t init_seed = 1234);

/// A new model of `kind` holding a copy of `source`'s weights, so training
/// the copy leaves `source` (and every session reading it) untouched.
std::shared_ptr<FoundationModel> CopyModel(ModelKind kind,
                                           const FoundationModel& source);

}  // namespace tsfm::models

#endif  // TSFM_MODELS_PRETRAINED_H_
