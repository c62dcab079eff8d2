#ifndef TSFM_SIMD_SIMD_MATH_H_
#define TSFM_SIMD_SIMD_MATH_H_

#include <cstdint>

// Vectorized transcendental kernels (AVX2/NEON with a scalar fallback).
//
// Layout of the contract:
//
//   * ExpS/TanhS/ErfS/GeluS/SigmoidS are the SCALAR REFERENCE functions.
//     Each is written as an explicit fmaf/min/max/select chain whose every
//     operation has an exact per-lane vector counterpart, and each has a
//     single out-of-line machine-code instance (same reasoning as
//     ops::detail::GeluScalar — see tensor/op_math.h).
//
//   * The *Row kernels apply the vector implementation to the main body of
//     the row and the scalar reference to the tail. Because the scalar and
//     vector code perform identical operations per lane, a row kernel is
//     BIT-IDENTICAL to applying the scalar reference element-wise, for any
//     row length and any split point. This is what makes SIMD mode keep the
//     repo's determinism contract for free: ParallelFor chunk boundaries
//     reduce to "same scalar function, different split", which cannot change
//     any output bit.
//
//   * SIMD-mode results may differ from the std::exp/std::tanh scalar-mode
//     kernels by a few ulps; the CI accuracy-epsilon gate bounds the
//     end-to-end effect on classification.
//
// Special values: NaN propagates; exp(-inf)=0, exp(+inf)=inf; tanh/erf
// saturate to +/-1; GELU follows the saturation-guarded GeluScalar contract.
namespace tsfm::simd {

/// Scalar references (exact per-lane semantics of the vector kernels).
float ExpS(float x);
float TanhS(float x);
float ErfS(float x);
float GeluS(float x);
float SigmoidS(float x);

/// Vectorized element maps; `out` may alias `in`. Bit-identical to the
/// scalar reference applied element-wise.
void ExpRow(const float* in, float* out, int64_t n);
void TanhRow(const float* in, float* out, int64_t n);
void ErfRow(const float* in, float* out, int64_t n);
void GeluRow(const float* in, float* out, int64_t n);
void SigmoidRow(const float* in, float* out, int64_t n);

/// Fused softmax / log-softmax of one dense row, SIMD-mode counterparts of
/// ops::detail::SoftmaxRow with the same non-finite contract (NaN rows
/// poison, all--inf rows are uniform, +inf entries split the mass). The
/// denominator reduction order is fixed per backend, so results are
/// deterministic and thread-count independent, but the scalar-fallback
/// backend is not bit-identical to the AVX2 backend (unlike the element
/// maps above, which are backend-identical).
void SoftmaxRow(const float* in, float* out, int64_t n);
void LogSoftmaxRow(const float* in, float* out, int64_t n);

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_SIMD_MATH_H_
