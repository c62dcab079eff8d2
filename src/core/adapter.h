#ifndef TSFM_CORE_ADAPTER_H_
#define TSFM_CORE_ADAPTER_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace tsfm::core {

enum class AdapterKind;  // defined below

/// Interface for channel-dimensionality-reduction adapters.
///
/// An adapter is inserted *before* a univariate-channel foundation model: it
/// maps a multivariate batch (N, T, D) to (N, T', D') with D' <= D (and
/// T' == T except for Patch-PCA, which coarsens time by its window size).
/// Static adapters (PCA, SVD, random projection, variance selection) are
/// fitted once on training data and then act as fixed linear maps; learnable
/// adapters (the linear combiner, lcomb) expose trainable parameters that are
/// optimized jointly with the classification head through the foundation
/// model.
class Adapter {
 public:
  virtual ~Adapter() = default;

  Adapter() = default;
  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  /// Human-readable identifier ("PCA", "lcomb_top_k", ...).
  virtual std::string name() const = 0;

  /// Number of output channels D'.
  virtual int64_t output_channels() const = 0;

  /// True once Fit succeeded (learnable adapters are fit by initialization).
  virtual bool fitted() const = 0;

  /// Fits the adapter on training data `x` (N, T, D). Labels `y` are
  /// available for supervised adapters; unsupervised ones ignore them.
  virtual Status Fit(const Tensor& x, const std::vector<int64_t>& y) = 0;

  /// Applies the fitted adapter: (N, T, D) -> (N, T', D').
  virtual Result<Tensor> Transform(const Tensor& x) const = 0;

  /// Differentiable transform used when training through the adapter.
  /// The default lowers to the static `Transform` (constant w.r.t. any
  /// parameters); learnable adapters override it.
  virtual ag::Var TransformVar(const ag::Var& x) const;

  /// Trainable parameters (empty for static adapters).
  virtual std::vector<ag::Var> TrainableParameters() const { return {}; }

  /// True if the adapter has trainable parameters and must run inside the
  /// fine-tuning loop (instead of the embed-once fast path).
  virtual bool IsLearnable() const { return false; }

  /// The adapter's family tag (used when reloading from disk).
  virtual AdapterKind kind() const = 0;

  /// Serializes the fitted state (not the configuration) to `os`.
  /// Requires fitted(). Used by SaveAdapter.
  virtual Status SaveState(std::ostream* os) const = 0;

  /// Restores state written by SaveState; leaves the adapter fitted.
  virtual Status LoadState(std::istream* is) = 0;
};

/// Adapter families implemented by the library (the paper's Section 3.3).
/// The numeric values are written into saved adapter files, so they never
/// change; LoadAdapter rejects any value past kLcombTopK.
enum class AdapterKind {
  kNone,       // identity: keep all D channels
  kPca,        // principal component analysis (+ scaled and patch variants)
  kSvd,        // truncated SVD (uncentered)
  kRandProj,   // Gaussian random projection
  kVar,        // variance-based channel selection
  kLcomb,      // learnable linear combiner
  kLcombTopK,  // lcomb with the top-k row-sparsification rule
};

const char* AdapterKindName(AdapterKind kind);

/// Configuration shared by all adapter kinds.
struct AdapterOptions {
  /// Target number of channels D' (the paper fixes 5 in Table 2).
  int64_t out_channels = 5;
  /// PCA: standardize columns before the eigendecomposition ("Scaled PCA").
  bool pca_scale = false;
  /// PCA: patch window size pws; 1 = standard PCA, 8/16 = Patch-PCA
  /// (Appendix C.1). Patch-PCA reshapes (N, T, D) to (N*n_p, pws*D) and
  /// coarsens the output time axis to n_p = T / pws.
  int64_t pca_patch_window = 1;
  /// lcomb_top_k: number of entries kept per row of W (paper uses k = 7).
  int64_t top_k = 7;
  /// Seed for stochastic adapters (random projection, lcomb init).
  uint64_t seed = 13;
};

/// Creates an adapter of `kind` with `options`.
std::unique_ptr<Adapter> CreateAdapter(AdapterKind kind,
                                       const AdapterOptions& options);

/// All kinds compared in the paper's Table 2, in presentation order.
const std::vector<AdapterKind>& AllAdapterKinds();

/// Writes a *fitted* adapter (kind + options + fitted state) to `path` so a
/// deployed pipeline can reload it without refitting.
Status SaveAdapter(const Adapter& adapter, const AdapterOptions& options,
                   const std::string& path);

/// Reloads an adapter written by SaveAdapter; the result is fitted and ready
/// to Transform.
Result<std::unique_ptr<Adapter>> LoadAdapter(const std::string& path);

}  // namespace tsfm::core

#endif  // TSFM_CORE_ADAPTER_H_
