#ifndef TSFM_SIMD_DISPATCH_H_
#define TSFM_SIMD_DISPATCH_H_

// CPU dispatch for the vectorized math kernels. The row kernels in
// simd_math.h check CpuHasAvx2() themselves and fall back to their
// lane-exact scalar references on CPUs without it.
namespace tsfm::simd {

/// True when the running CPU supports the AVX2+FMA code path compiled into
/// this binary. False on other architectures or when the translation unit
/// was not compiled with AVX2 support.
bool CpuHasAvx2();

/// Human-readable backend name for logs/reports: "avx2", "neon", or
/// "scalar".
const char* BackendName();

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_DISPATCH_H_
