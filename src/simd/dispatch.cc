#include "simd/dispatch.h"

namespace tsfm::simd {
namespace {

bool DetectAvx2() {
#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

bool CpuHasAvx2() {
  // cpuid probes are not cheap enough for inner loops; cache the answer.
  static const bool has = DetectAvx2();
  return has;
}

const char* BackendName() {
  if (CpuHasAvx2()) return "avx2";
#if defined(__aarch64__) && defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace tsfm::simd
