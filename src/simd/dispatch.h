#ifndef TSFM_SIMD_DISPATCH_H_
#define TSFM_SIMD_DISPATCH_H_

// Mode flags and CPU dispatch for the vectorized math / quantized inference
// paths. Each mode is a process-wide atomic initialized from an environment
// variable and togglable at runtime, with a scoped RAII override for tests
// and benchmarks.
//
//   TSFM_SIMD=1     / SetSimdMode(true)  -> vectorized exp/tanh/erf/GELU and
//                                           fused softmax row kernels.
//   TSFM_QUANT=int8 / SetQuantMode(true) -> int8 dynamic-quantized matmul in
//                                           frozen (no-grad) Linear layers.
//
// Determinism contract: each mode is bit-identical across thread counts.
// SIMD mode may diverge from scalar mode by bounded ulps (the CI
// accuracy-epsilon gate bounds the end-to-end effect); quantized mode is
// exact integer arithmetic, so its results are additionally independent of
// the scalar/AVX2 kernel choice.
namespace tsfm::simd {

/// True when SIMD transcendental kernels are enabled (TSFM_SIMD=1 or
/// SetSimdMode(true)).
bool SimdEnabled();
void SetSimdMode(bool enabled);

/// True when the int8 quantized frozen-encoder path is enabled
/// (TSFM_QUANT=int8|1 or SetQuantMode(true)).
bool QuantModeEnabled();
void SetQuantMode(bool enabled);

/// True when the running CPU supports the AVX2+FMA code path compiled into
/// this binary. False on other architectures or when the translation unit
/// was not compiled with AVX2 support.
bool CpuHasAvx2();

/// Human-readable backend name for logs/reports: "avx2", "neon", or
/// "scalar".
const char* BackendName();

class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(bool enabled) : prev_(SimdEnabled()) {
    SetSimdMode(enabled);
  }
  ~ScopedSimdMode() { SetSimdMode(prev_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  bool prev_;
};

class ScopedQuantMode {
 public:
  explicit ScopedQuantMode(bool enabled) : prev_(QuantModeEnabled()) {
    SetQuantMode(enabled);
  }
  ~ScopedQuantMode() { SetQuantMode(prev_); }
  ScopedQuantMode(const ScopedQuantMode&) = delete;
  ScopedQuantMode& operator=(const ScopedQuantMode&) = delete;

 private:
  bool prev_;
};

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_DISPATCH_H_
