#ifndef TSFM_NN_SERIALIZE_H_
#define TSFM_NN_SERIALIZE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "nn/module.h"

namespace tsfm::nn {

/// Writes every named parameter of `module` to `path` in a simple binary
/// checkpoint format (magic, count, then {name, shape, float32 data} records).
/// This is how "pretrained checkpoints" are persisted and reloaded, standing
/// in for the paper's HuggingFace MOMENT checkpoint.
Status SaveCheckpoint(const Module& module, const std::string& path);

/// The name and shape of every parameter in the checkpoint at `path`, read
/// without building a module (e.g. a saved head's class count). Fails as
/// LoadCheckpoint does on a missing, corrupt or truncated file.
Result<std::map<std::string, Shape>> ReadCheckpointShapes(
    const std::string& path);

/// Loads a checkpoint into `module`. Every parameter in the module must be
/// present in the file with a matching shape; extra records in the file are
/// an error (the checkpoint and architecture must correspond exactly).
Status LoadCheckpoint(Module* module, const std::string& path);

}  // namespace tsfm::nn

#endif  // TSFM_NN_SERIALIZE_H_
