#ifndef TSFM_NN_MODULE_H_
#define TSFM_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace tsfm::nn {

/// Per-forward-pass context: training mode toggles dropout; `rng` provides
/// the randomness stream (so forward passes are reproducible per seed).
struct ForwardContext {
  bool training = false;
  Rng* rng = nullptr;
};

/// Base class for neural-network modules.
///
/// A module owns named parameters (leaf `Var`s with `requires_grad == true`)
/// and named sub-modules; `NamedParameters()` flattens the tree with
/// slash-separated paths (e.g. "encoder/layer0/attn/wq"). There is no virtual
/// `Forward` — each concrete module exposes its own typed forward method.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its descendants, with path names.
  std::vector<std::pair<std::string, ag::Var>> NamedParameters() const;

  /// All parameters (no names), in deterministic registration order.
  std::vector<ag::Var> Parameters() const;

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

  /// Zeroes the gradient accumulator on every parameter.
  void ZeroGrad();

 protected:
  /// Registers a trainable parameter. Returns the stored Var (aliasing).
  ag::Var RegisterParameter(const std::string& name, Tensor value);

  /// Registers a child module (kept alive by shared ownership).
  void RegisterModule(const std::string& name, std::shared_ptr<Module> child);

 private:
  std::vector<std::pair<std::string, ag::Var>> params_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
};

/// Glorot/Xavier-uniform initialization for a (fan_in, fan_out) weight.
Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

}  // namespace tsfm::nn

#endif  // TSFM_NN_MODULE_H_
