#include "core/adapter.h"

#include <sstream>

#include "common/check.h"
#include "core/io_util.h"
#include "core/lcomb_adapter.h"
#include "core/pca_adapter.h"
#include "core/static_adapters.h"
#include "io/artifact.h"

namespace tsfm::core {

namespace {
// Adapter format v2: the option block + SaveState stream live inside the
// io::WriteArtifact container (CRC-32 trailer, atomic replace). Pre-v2
// files ("TSFMADAP" magic, no integrity data) fail the container check.
constexpr uint64_t kAdapterMagic = 0x325044414D465354ULL;  // "TSFMADP2"
constexpr uint32_t kAdapterVersion = 2;
}  // namespace

ag::Var Adapter::TransformVar(const ag::Var& x) const {
  Result<Tensor> out = Transform(x.value());
  TSFM_CHECK(out.ok()) << "Transform failed in TransformVar: "
                       << out.status().ToString();
  return ag::Constant(*out);
}

const char* AdapterKindName(AdapterKind kind) {
  switch (kind) {
    case AdapterKind::kNone:
      return "no_adapter";
    case AdapterKind::kPca:
      return "PCA";
    case AdapterKind::kSvd:
      return "SVD";
    case AdapterKind::kRandProj:
      return "Rand_Proj";
    case AdapterKind::kVar:
      return "VAR";
    case AdapterKind::kLcomb:
      return "lcomb";
    case AdapterKind::kLcombTopK:
      return "lcomb_top_k";
  }
  return "unknown";
}

std::unique_ptr<Adapter> CreateAdapter(AdapterKind kind,
                                       const AdapterOptions& options) {
  switch (kind) {
    case AdapterKind::kNone:
      return std::make_unique<IdentityAdapter>();
    case AdapterKind::kPca:
      return std::make_unique<PcaAdapter>(options);
    case AdapterKind::kSvd:
      return std::make_unique<SvdAdapter>(options);
    case AdapterKind::kRandProj:
      return std::make_unique<RandProjAdapter>(options);
    case AdapterKind::kVar:
      return std::make_unique<VarAdapter>(options);
    case AdapterKind::kLcomb:
      return std::make_unique<LinearCombinerAdapter>(options,
                                                     /*use_top_k=*/false);
    case AdapterKind::kLcombTopK:
      return std::make_unique<LinearCombinerAdapter>(options,
                                                     /*use_top_k=*/true);
  }
  return nullptr;
}

Status SaveAdapter(const Adapter& adapter, const AdapterOptions& options,
                   const std::string& path) {
  if (!adapter.fitted()) {
    return Status::FailedPrecondition("cannot save an unfitted adapter");
  }
  std::ostringstream os;
  io::WriteU64(&os, static_cast<uint64_t>(adapter.kind()));
  io::WriteU64(&os, static_cast<uint64_t>(options.out_channels));
  io::WriteU64(&os, options.pca_scale ? 1 : 0);
  io::WriteU64(&os, static_cast<uint64_t>(options.pca_patch_window));
  io::WriteU64(&os, static_cast<uint64_t>(options.top_k));
  io::WriteU64(&os, options.seed);
  TSFM_RETURN_IF_ERROR(adapter.SaveState(&os));
  if (!os) return Status::IoError("adapter serialization failed");
  return tsfm::io::WriteArtifact(path, kAdapterMagic, kAdapterVersion,
                                 os.str());
}

Result<std::unique_ptr<Adapter>> LoadAdapter(const std::string& path) {
  TSFM_ASSIGN_OR_RETURN(
      const std::string payload,
      tsfm::io::ReadArtifactPayload(path, kAdapterMagic, kAdapterVersion));
  std::istringstream is(payload);
  uint64_t kind_raw = 0, out_channels = 0, pca_scale = 0, pws = 0, top_k = 0,
           seed = 0;
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &kind_raw));
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &out_channels));
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &pca_scale));
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &pws));
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &top_k));
  TSFM_RETURN_IF_ERROR(io::ReadU64(&is, &seed));
  if (kind_raw > static_cast<uint64_t>(AdapterKind::kLcombTopK)) {
    return Status::IoError("unknown adapter kind in file");
  }
  AdapterOptions options;
  options.out_channels = static_cast<int64_t>(out_channels);
  options.pca_scale = pca_scale != 0;
  options.pca_patch_window = static_cast<int64_t>(pws);
  options.top_k = static_cast<int64_t>(top_k);
  options.seed = seed;
  std::unique_ptr<Adapter> adapter =
      CreateAdapter(static_cast<AdapterKind>(kind_raw), options);
  if (adapter == nullptr) return Status::Internal("factory returned null");
  TSFM_RETURN_IF_ERROR(adapter->LoadState(&is));
  return adapter;
}

const std::vector<AdapterKind>& AllAdapterKinds() {
  static const std::vector<AdapterKind>* kKinds = new std::vector<AdapterKind>{
      AdapterKind::kPca,   AdapterKind::kSvd,   AdapterKind::kRandProj,
      AdapterKind::kVar,   AdapterKind::kLcomb, AdapterKind::kLcombTopK,
  };
  return *kKinds;
}

}  // namespace tsfm::core
