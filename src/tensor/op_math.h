#ifndef TSFM_TENSOR_OP_MATH_H_
#define TSFM_TENSOR_OP_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

// Shared scalar math for elementwise kernels.
//
// Every transcendental the encoder touches (GELU, sigmoid, softmax rows) is
// defined exactly once, here, for the scalar-mode kernels in tensor/ops.cc.
//
// GeluScalar and SigmoidScalar are deliberately OUT-OF-LINE (op_math.cc,
// compiled into tsfm_tensor): their bodies contain mul+add chains, and under
// -ffp-contract=fast where a copy is compiled decides how it contracts.
// tsfm_tensor builds with -march=native (FMA) while other targets that
// include this header, such as the tests, do not, so an inlined copy there
// would round differently from the kernels by an ulp. A single machine-code
// instance keeps every caller on the same bits. Single-operation helpers
// (ReluScalar) have nothing to contract and stay inline.
namespace tsfm::ops::detail {

/// GELU, tanh approximation as used by transformers.
float GeluScalar(float x);

float SigmoidScalar(float x);

inline float ReluScalar(float x) { return x > 0.0f ? x : 0.0f; }

/// Scans a row once, returning the max over non-NaN entries (-inf when every
/// entry is NaN or `len` is 0) and whether any entry was NaN. Shared by the
/// softmax kernels' non-finite handling.
inline float RowMaxSkipNan(const float* row, int64_t len, bool* has_nan) {
  float mx = -std::numeric_limits<float>::infinity();
  bool nan = false;
  for (int64_t i = 0; i < len; ++i) {
    const float v = row[i];
    if (v != v) {
      nan = true;
    } else {
      mx = std::max(mx, v);
    }
  }
  *has_nan = nan;
  return mx;
}

/// Numerically stabilized softmax of one dense row; `out` may alias `row`.
/// The accumulation order (ascending index, float accumulator) is fixed, so
/// the result is independent of how rows are split across threads.
///
/// Non-finite contract (the max-subtraction alone cannot rescue these rows —
/// exp(-inf - -inf) and exp(nan) both poison the denominator):
///   * any NaN entry          -> the whole row is NaN (poison propagates);
///   * all entries -inf       -> uniform 1/len (no information = uniform);
///   * any +inf entry         -> mass split equally over the +inf entries,
///                               exactly 0 elsewhere;
///   * finite rows (including +/-FLT_MAX) -> bit-identical to the classic
///     max-subtracted kernel below.
inline void SoftmaxRow(const float* row, float* out, int64_t len) {
  bool has_nan = false;
  const float mx = RowMaxSkipNan(row, len, &has_nan);
  if (has_nan) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < len; ++i) out[i] = qnan;
    return;
  }
  if (mx == std::numeric_limits<float>::infinity()) {
    int64_t count = 0;
    for (int64_t i = 0; i < len; ++i) count += (row[i] == mx) ? 1 : 0;
    const float share = 1.0f / static_cast<float>(count);
    for (int64_t i = 0; i < len; ++i) out[i] = (row[i] == mx) ? share : 0.0f;
    return;
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    const float share = 1.0f / static_cast<float>(len);
    for (int64_t i = 0; i < len; ++i) out[i] = share;
    return;
  }
  float denom = 0.0f;
  for (int64_t i = 0; i < len; ++i) {
    out[i] = std::exp(row[i] - mx);
    denom += out[i];
  }
  const float inv = 1.0f / denom;
  for (int64_t i = 0; i < len; ++i) out[i] *= inv;
}

/// Log-softmax of one dense row; `out` may alias `row`. Same non-finite
/// contract as SoftmaxRow, expressed in log space: NaN rows poison, all--inf
/// rows are uniform (-log(len)), +inf entries take -log(count) with -inf
/// everywhere else.
inline void LogSoftmaxRow(const float* row, float* out, int64_t len) {
  bool has_nan = false;
  const float mx = RowMaxSkipNan(row, len, &has_nan);
  if (has_nan) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < len; ++i) out[i] = qnan;
    return;
  }
  if (mx == std::numeric_limits<float>::infinity()) {
    int64_t count = 0;
    for (int64_t i = 0; i < len; ++i) count += (row[i] == mx) ? 1 : 0;
    const float log_share = -std::log(static_cast<float>(count));
    for (int64_t i = 0; i < len; ++i) {
      out[i] = (row[i] == mx) ? log_share
                              : -std::numeric_limits<float>::infinity();
    }
    return;
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    const float log_share = -std::log(static_cast<float>(len));
    for (int64_t i = 0; i < len; ++i) out[i] = log_share;
    return;
  }
  float denom = 0.0f;
  for (int64_t i = 0; i < len; ++i) denom += std::exp(row[i] - mx);
  const float log_denom = std::log(denom) + mx;
  for (int64_t i = 0; i < len; ++i) out[i] = row[i] - log_denom;
}

}  // namespace tsfm::ops::detail

#endif  // TSFM_TENSOR_OP_MATH_H_
