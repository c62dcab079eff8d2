#include "tensor/op_math.h"

#include <cmath>

// Out-of-line homes for the multi-operation scalar transcendentals used by
// the elementwise kernels. See op_math.h for why these must have exactly one
// machine-code instance; noinline keeps a future LTO build from re-inlining
// them into differently-contracted copies.
namespace tsfm::ops::detail {

__attribute__((noinline)) float GeluScalar(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  // Saturation guard. At |x| = 8 the tanh argument is ~24.7, far past where
  // tanhf returns exactly +/-1.0f, so the unguarded expression already
  // evaluates to exactly x (or -0.0f) there — the guard changes no finite
  // result, it only keeps the x^3 term from running through inf (which turns
  // GELU(-inf) into inf*0 = NaN) and skips the pointless tanh call.
  constexpr float kSat = 8.0f;
  if (x >= kSat) return x;
  if (x <= -kSat) return -0.0f;
  const float inner = kSqrt2OverPi * (x + kA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

__attribute__((noinline)) float SigmoidScalar(float x) {
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace tsfm::ops::detail
