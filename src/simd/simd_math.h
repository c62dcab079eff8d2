#ifndef TSFM_SIMD_SIMD_MATH_H_
#define TSFM_SIMD_SIMD_MATH_H_

#include <cstdint>

// Vectorized transcendental kernels (AVX2/NEON with a scalar fallback).
// They are the only implementation of the tensor layer's Exp, Tanh,
// Sigmoid, Gelu, Softmax and LogSoftmax (tensor/ops.cc).
//
// Layout of the contract:
//
//   * ExpS/TanhS/ErfS/GeluS/SigmoidS are the SCALAR REFERENCE functions.
//     Each is written as an explicit fmaf/min/max/select chain whose every
//     operation has an exact per-lane vector counterpart, and each has a
//     single out-of-line machine-code instance: under -ffp-contract=fast
//     where a copy is compiled decides how its mul+add chains contract, and
//     tsfm_simd builds with -march=native while callers such as the tests
//     may not, so one instance keeps every caller on the same bits.
//
//   * The *Row kernels apply the vector implementation to the main body of
//     the row and the scalar reference to the tail. Because the scalar and
//     vector code perform identical operations per lane, a row kernel is
//     BIT-IDENTICAL to applying the scalar reference element-wise, for any
//     row length and any split point. This is what keeps the repo's
//     determinism contract for free: ParallelFor chunk boundaries reduce to
//     "same scalar function, different split", which cannot change any
//     output bit. x86 CPUs without AVX2 run the scalar reference throughout.
//
// Special values: NaN propagates; exp(-inf)=0, exp(+inf)=inf; tanh/erf
// saturate to +/-1; GELU returns x for x >= 8 and -0 for x <= -8, so an
// overflowing x^3 can never turn GELU(+/-inf) into NaN.
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

/// Numerically stabilized softmax / log-softmax of one dense row; `out`
/// may alias `in`. Non-finite contract (max-subtraction alone cannot rescue
/// these rows: exp(-inf - -inf) and exp(nan) both poison the denominator):
///   * any NaN entry    -> the whole row is NaN;
///   * all entries -inf -> uniform 1/n (log-softmax: -log(n));
///   * any +inf entry   -> mass split equally over the +inf entries, 0
///                         (log-softmax: -inf) everywhere else.
/// The denominator reduction order is fixed per backend, so results are
/// deterministic and thread-count independent, but the scalar-fallback
/// backend is not bit-identical to the AVX2 backend (unlike the element
/// maps above, which are backend-identical).
void SoftmaxRow(const float* in, float* out, int64_t n);
void LogSoftmaxRow(const float* in, float* out, int64_t n);

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_SIMD_MATH_H_
