// SIMD transcendental kernels.
//
// The contract under test: row kernels are bit-identical to their scalar
// reference applied element-wise (any length, any split) — this is what
// carries the repo's thread-count determinism through the vectorized
// kernels — and the references themselves stay accurate and honour the
// special-value and non-finite softmax contracts.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simd/dispatch.h"
#include "simd/simd_math.h"

namespace tsfm {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

float RelErr(double got, double want) {
  if (want == 0.0) return static_cast<float>(std::fabs(got));
  return static_cast<float>(std::fabs(got - want) /
                            std::max(1e-30, std::fabs(want)));
}

TEST(SimdMathTest, ScalarReferencesMatchDoublePrecision) {
  // Sweep the useful ranges and compare against double-precision libm.
  // The Cephes-style polynomials are good to a few ulps; 1e-5 relative /
  // 1e-6 absolute is far above their error but far below anything a
  // training or inference path could absorb silently.
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const float u = static_cast<float>(i - 10000) / 10000.0f;  // [-1, 1)
    const float x_exp = u * 87.0f;
    EXPECT_LT(RelErr(simd::ExpS(x_exp), std::exp(static_cast<double>(x_exp))),
              1e-5f)
        << "exp(" << x_exp << ")";
    const float x_tanh = u * 12.0f;
    EXPECT_NEAR(simd::TanhS(x_tanh), std::tanh(static_cast<double>(x_tanh)),
                2e-6)
        << "tanh(" << x_tanh << ")";
    const float x_erf = u * 6.0f;
    // A&S 7.1.26 is a 7-digit-absolute approximation, not a relative one.
    EXPECT_NEAR(simd::ErfS(x_erf), std::erf(static_cast<double>(x_erf)), 2e-6)
        << "erf(" << x_erf << ")";
    const float x_sig = u * 30.0f;
    EXPECT_NEAR(simd::SigmoidS(x_sig),
                1.0 / (1.0 + std::exp(-static_cast<double>(x_sig))), 2e-6)
        << "sigmoid(" << x_sig << ")";
    const float x_gelu = u * 7.5f;
    const double t = std::tanh(0.7978845608028654 *
                               (static_cast<double>(x_gelu) +
                                0.044715 * std::pow(x_gelu, 3.0)));
    EXPECT_NEAR(simd::GeluS(x_gelu), 0.5 * x_gelu * (1.0 + t), 4e-6)
        << "gelu(" << x_gelu << ")";
  }
}

TEST(SimdMathTest, ScalarReferenceSpecialValues) {
  EXPECT_EQ(simd::ExpS(kInf), kInf);
  EXPECT_EQ(simd::ExpS(-kInf), 0.0f);
  EXPECT_EQ(simd::ExpS(0.0f), 1.0f);
  EXPECT_TRUE(std::isnan(simd::ExpS(kNan)));
  // The overflow threshold itself must stay finite: exp(88.376...) ~ 2.4e38
  // fits in fp32, and a single-factor 2^n bit trick would lose it.
  EXPECT_TRUE(std::isfinite(simd::ExpS(88.3762626647949f)));
  EXPECT_GT(simd::ExpS(88.3762626647949f), 2e38f);
  EXPECT_EQ(simd::ExpS(89.0f), kInf);
  EXPECT_EQ(simd::ExpS(-104.0f), 0.0f);

  EXPECT_EQ(simd::TanhS(kInf), 1.0f);
  EXPECT_EQ(simd::TanhS(-kInf), -1.0f);
  EXPECT_TRUE(std::isnan(simd::TanhS(kNan)));
  EXPECT_EQ(simd::ErfS(kInf), 1.0f);
  EXPECT_EQ(simd::ErfS(-kInf), -1.0f);
  EXPECT_TRUE(std::isnan(simd::ErfS(kNan)));
  EXPECT_EQ(simd::SigmoidS(kInf), 1.0f);
  EXPECT_EQ(simd::SigmoidS(-kInf), 0.0f);
  EXPECT_TRUE(std::isnan(simd::SigmoidS(kNan)));

  EXPECT_EQ(simd::GeluS(kInf), kInf);
  EXPECT_EQ(simd::GeluS(-kInf), -0.0f);
  EXPECT_TRUE(std::signbit(simd::GeluS(-kInf)));
  EXPECT_TRUE(std::isnan(simd::GeluS(kNan)));
  // Saturation region: x for x >= 8, -0 for x <= -8.
  EXPECT_EQ(simd::GeluS(3e38f), 3e38f);
  EXPECT_EQ(simd::GeluS(-3e38f), -0.0f);
}

TEST(SimdMathTest, RowKernelsBitIdenticalToScalarReference) {
  using RowFn = void (*)(const float*, float*, int64_t);
  using ScalFn = float (*)(float);
  struct Pair {
    const char* name;
    RowFn row;
    ScalFn scal;
  };
  const Pair kPairs[] = {
      {"exp", simd::ExpRow, simd::ExpS},
      {"tanh", simd::TanhRow, simd::TanhS},
      {"erf", simd::ErfRow, simd::ErfS},
      {"gelu", simd::GeluRow, simd::GeluS},
      {"sigmoid", simd::SigmoidRow, simd::SigmoidS},
  };
  Rng rng(7);
  for (const auto& p : kPairs) {
    // Every length from 1 to 67 exercises all vector/tail split points.
    for (int64_t n = 1; n <= 67; ++n) {
      std::vector<float> in(static_cast<size_t>(n));
      for (auto& v : in) {
        v = (static_cast<float>(rng.Uniform()) - 0.5f) * 20.0f;
      }
      // Sprinkle specials into a few slots.
      if (n > 3) {
        in[0] = kNan;
        in[1] = kInf;
        in[2] = -kInf;
      }
      std::vector<float> got(static_cast<size_t>(n));
      std::vector<float> want(static_cast<size_t>(n));
      p.row(in.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        want[static_cast<size_t>(i)] = p.scal(in[static_cast<size_t>(i)]);
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) * static_cast<size_t>(n)),
                0)
          << p.name << " length " << n << " (backend "
          << simd::BackendName() << ")";
      // In-place: out aliasing in must give the same bits.
      p.row(in.data(), in.data(), n);
      ASSERT_EQ(std::memcmp(in.data(), want.data(),
                            sizeof(float) * static_cast<size_t>(n)),
                0)
          << p.name << " in-place, length " << n;
    }
  }
}

TEST(SimdMathTest, SoftmaxRowFiniteMatchesScalarKernelClosely) {
  // Reference: max-subtracted softmax and log-softmax in double precision.
  Rng rng(11);
  for (int64_t n : {1, 2, 7, 8, 9, 31, 64, 100}) {
    std::vector<float> in(static_cast<size_t>(n));
    for (auto& v : in) v = (static_cast<float>(rng.Uniform()) - 0.5f) * 10.0f;
    double mx = in[0];
    for (float v : in) mx = std::max(mx, static_cast<double>(v));
    double denom = 0.0;
    for (float v : in) denom += std::exp(v - mx);
    const double log_denom = std::log(denom) + mx;

    std::vector<float> out(static_cast<size_t>(n));
    simd::SoftmaxRow(in.data(), out.data(), n);
    float sum = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_NEAR(out[k], std::exp(in[k] - mx) / denom, 1e-5)
          << "n=" << n << " i=" << i;
      sum += out[k];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);

    std::vector<float> lsm(static_cast<size_t>(n));
    simd::LogSoftmaxRow(in.data(), lsm.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_NEAR(lsm[k], in[k] - log_denom, 1e-4)
          << "logsoftmax n=" << n << " i=" << i;
    }
    // In-place log-softmax (out aliases in) must give the same bits.
    simd::LogSoftmaxRow(in.data(), in.data(), n);
    ASSERT_EQ(std::memcmp(in.data(), lsm.data(),
                          sizeof(float) * static_cast<size_t>(n)),
              0)
        << "logsoftmax in-place, n=" << n;
  }
}

TEST(SimdMathTest, SoftmaxRowNonFiniteContract) {
  // NaN poisons the row, all--inf is uniform, +inf entries split the mass
  // (tensor_ops_test checks the same contract through Softmax/LogSoftmax).
  {
    const float in[4] = {1.0f, kNan, 2.0f, 3.0f};
    float out[4];
    simd::SoftmaxRow(in, out, 4);
    for (float v : out) EXPECT_TRUE(std::isnan(v));
    simd::LogSoftmaxRow(in, out, 4);
    for (float v : out) EXPECT_TRUE(std::isnan(v));
  }
  {
    const float in[4] = {-kInf, -kInf, -kInf, -kInf};
    float out[4];
    simd::SoftmaxRow(in, out, 4);
    for (float v : out) EXPECT_EQ(v, 0.25f);
    simd::LogSoftmaxRow(in, out, 4);
    for (float v : out) EXPECT_NEAR(v, -std::log(4.0f), 1e-6f);
  }
  {
    const float in[5] = {0.0f, kInf, -1.0f, kInf, -kInf};
    float out[5];
    simd::SoftmaxRow(in, out, 5);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 0.5f);
    EXPECT_EQ(out[2], 0.0f);
    EXPECT_EQ(out[3], 0.5f);
    EXPECT_EQ(out[4], 0.0f);
    simd::LogSoftmaxRow(in, out, 5);
    EXPECT_EQ(out[0], -kInf);
    EXPECT_NEAR(out[1], -std::log(2.0f), 1e-6f);
    EXPECT_EQ(out[3], out[1]);
    EXPECT_EQ(out[4], -kInf);
  }
}

}  // namespace
}  // namespace tsfm
