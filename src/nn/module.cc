#include "nn/module.h"

#include <cmath>

#include "common/check.h"

namespace tsfm::nn {

std::vector<std::pair<std::string, ag::Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, ag::Var>> out = params_;
  for (const auto& [name, child] : children_) {
    for (const auto& [pname, p] : child->NamedParameters()) {
      out.emplace_back(name + "/" + pname, p);
    }
  }
  return out;
}

std::vector<ag::Var> Module::Parameters() const {
  std::vector<ag::Var> out;
  for (const auto& [name, p] : NamedParameters()) out.push_back(p);
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& p : Parameters()) n += p.value().numel();
  return n;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

ag::Var Module::RegisterParameter(const std::string& name, Tensor value) {
  ag::Var v(std::move(value), /*requires_grad=*/true);
  params_.emplace_back(name, v);
  return v;
}

void Module::RegisterModule(const std::string& name,
                            std::shared_ptr<Module> child) {
  TSFM_CHECK(child != nullptr);
  children_.emplace_back(name, std::move(child));
}

Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandUniform(Shape{fan_in, fan_out}, rng, -limit, limit);
}

}  // namespace tsfm::nn
