// SIMD transcendental kernels + int8 quantized inference path.
//
// The two contracts under test:
//   1. Row kernels are bit-identical to their scalar reference applied
//      element-wise (any length, any split) — this is what carries the
//      repo's thread-count determinism into SIMD mode.
//   2. The quantized path is exact integer arithmetic after quantization,
//      so it is bit-identical across thread counts and across kernel
//      choices, and a quantized checkpoint round-trips to the very same
//      int8 images (and therefore the very same predictions).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/rng.h"
#include "models/foundation_model.h"
#include "models/moment.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/quant.h"
#include "simd/simd_math.h"
#include "tensor/op_math.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

// Edge inputs shared by several tests: specials, saturation boundaries,
// and magnitudes that overflow x^3 in fp32.
const std::vector<float> EdgeInputs() {
  return {0.0f,   -0.0f,  1.0f,   -1.0f,  7.999f, -7.999f, 8.0f,
          -8.0f,  8.001f, -8.001f, 20.0f, -20.0f, 88.0f,   -88.0f,
          89.0f,  -89.0f, 1e30f,  -1e30f, 3e38f,  -3e38f,  kInf,
          -kInf,  kNan};
}

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
  // Saturation region: identical to the ops::detail::GeluScalar contract.
  EXPECT_EQ(simd::GeluS(3e38f), 3e38f);
  EXPECT_EQ(simd::GeluS(-3e38f), -0.0f);
}

TEST(SimdMathTest, GeluEdgeAgreementAcrossImplementations) {
  // The Gelu kernel calls ops::detail::GeluScalar in scalar mode and
  // simd::GeluS in SIMD mode. The two use different tanh approximations, so
  // mid-range values differ by ulps — but every edge/saturation result must
  // agree EXACTLY, because both fire their guards before any polynomial
  // runs.
  for (float x : EdgeInputs()) {
    const float a = ops::detail::GeluScalar(x);
    const float b = simd::GeluS(x);
    if (std::isnan(a) || std::isnan(b)) {
      EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << "x=" << x;
    } else if (std::fabs(x) >= 8.0f) {
      EXPECT_EQ(a, b) << "x=" << x;
      EXPECT_EQ(std::signbit(a), std::signbit(b)) << "x=" << x;
    } else {
      EXPECT_NEAR(a, b, 4e-6f) << "x=" << x;
    }
  }
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
  Rng rng(11);
  for (int64_t n : {1, 2, 7, 8, 9, 31, 64, 100}) {
    std::vector<float> in(static_cast<size_t>(n));
    for (auto& v : in) v = (static_cast<float>(rng.Uniform()) - 0.5f) * 10.0f;
    std::vector<float> simd_out(static_cast<size_t>(n));
    std::vector<float> ref_out(static_cast<size_t>(n));
    simd::SoftmaxRow(in.data(), simd_out.data(), n);
    ops::detail::SoftmaxRow(in.data(), ref_out.data(), n);
    float sum = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(simd_out[static_cast<size_t>(i)],
                  ref_out[static_cast<size_t>(i)], 1e-5f)
          << "n=" << n << " i=" << i;
      sum += simd_out[static_cast<size_t>(i)];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);

    std::vector<float> lsm(static_cast<size_t>(n));
    std::vector<float> lsm_ref(static_cast<size_t>(n));
    simd::LogSoftmaxRow(in.data(), lsm.data(), n);
    ops::detail::LogSoftmaxRow(in.data(), lsm_ref.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(lsm[static_cast<size_t>(i)],
                  lsm_ref[static_cast<size_t>(i)], 1e-4f)
          << "logsoftmax n=" << n << " i=" << i;
    }
    // In-place log-softmax (out aliases in) is part of the scalar kernel's
    // contract and the SIMD kernel must honor it too.
    simd::LogSoftmaxRow(in.data(), in.data(), n);
    ASSERT_EQ(std::memcmp(in.data(), lsm.data(),
                          sizeof(float) * static_cast<size_t>(n)),
              0)
        << "logsoftmax in-place, n=" << n;
  }
}

TEST(SimdMathTest, SoftmaxRowNonFiniteContract) {
  // Same contract as ops::detail::SoftmaxRow (tensor_ops_test covers the
  // scalar kernel): NaN poisons the row, all--inf is uniform, +inf entries
  // split the mass.
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

// ---------------------------------------------------------------------------
// Quantization

TEST(QuantTest, QuantizeWeightScalesAndRoundTrip) {
  Rng rng(21);
  const int64_t k = 24, n = 10;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) v = (static_cast<float>(rng.Uniform()) - 0.5f) * 4.0f;
  // Column 3 all zero: must get scale 1 and all-zero int8, not 0/0.
  for (int64_t i = 0; i < k; ++i) w[static_cast<size_t>(i * n + 3)] = 0.0f;

  const simd::QuantizedMatrix q = simd::QuantizeWeight(w.data(), k, n);
  ASSERT_EQ(q.rows, k);
  ASSERT_EQ(q.cols, n);
  ASSERT_EQ(q.scales.size(), static_cast<size_t>(n));
  ASSERT_EQ(q.data.size(), static_cast<size_t>(k * n));
  ASSERT_FALSE(q.packed.empty());

  for (int64_t j = 0; j < n; ++j) {
    float maxabs = 0.0f;
    for (int64_t i = 0; i < k; ++i) {
      maxabs = std::max(maxabs, std::fabs(w[static_cast<size_t>(i * n + j)]));
    }
    const float want_scale = maxabs == 0.0f ? 1.0f : maxabs / 127.0f;
    EXPECT_FLOAT_EQ(q.scales[static_cast<size_t>(j)], want_scale) << j;
    for (int64_t i = 0; i < k; ++i) {
      const int8_t qv = q.data[static_cast<size_t>(i * n + j)];
      EXPECT_GE(qv, -127);
      EXPECT_LE(qv, 127);
      // Dequantization error is at most half a quantization step.
      const float deq = static_cast<float>(qv) * q.scales[static_cast<size_t>(j)];
      EXPECT_NEAR(deq, w[static_cast<size_t>(i * n + j)],
                  0.5f * q.scales[static_cast<size_t>(j)] + 1e-7f)
          << "(" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(q.scales[3], 1.0f);
  for (int64_t i = 0; i < k; ++i) {
    EXPECT_EQ(q.data[static_cast<size_t>(i * n + 3)], 0);
  }
}

TEST(QuantTest, QuantMatMulCloseToFp32AndSelfConsistent) {
  Rng rng(22);
  const int64_t m = 17, k = 64, n = 23;
  Tensor a = Tensor::RandN({m, k}, &rng);
  Tensor w = Tensor::RandN({k, n}, &rng);
  Tensor ref = MatMul(a, w);

  const simd::QuantizedMatrix q = simd::QuantizeWeight(w.data(), k, n);
  Tensor got = Tensor::Empty({m, n});
  simd::QuantMatMul(a.data(), m, q, got.mutable_data());

  // Accuracy: randn inputs at k=64 keep the per-entry quantization noise
  // well under 0.5 absolute (entries are ~N(0, 8)).
  float max_diff = 0.0f;
  double sum_diff = 0.0;
  for (int64_t i = 0; i < m * n; ++i) {
    const float d = std::fabs(got.data()[i] - ref.data()[i]);
    max_diff = std::max(max_diff, d);
    sum_diff += d;
  }
  EXPECT_LT(max_diff, 0.5f);
  EXPECT_LT(sum_diff / static_cast<double>(m * n), 0.12);

  // Exactness: a second run returns the same bits.
  Tensor again = Tensor::Empty({m, n});
  simd::QuantMatMul(a.data(), m, q, again.mutable_data());
  EXPECT_EQ(std::memcmp(got.data(), again.data(),
                        sizeof(float) * static_cast<size_t>(m * n)),
            0);
}

TEST(QuantTest, QuantMatMulBitIdenticalAcrossThreadCounts) {
  const int saved = runtime::NumThreads();
  Rng rng(23);
  // k*n = 4096 -> ParallelFor grain 256: several chunks at m=600.
  const int64_t m = 600, k = 64, n = 64;
  Tensor a = Tensor::RandN({m, k}, &rng);
  Tensor w = Tensor::RandN({k, n}, &rng);
  const simd::QuantizedMatrix q = simd::QuantizeWeight(w.data(), k, n);

  runtime::SetNumThreads(1);
  Tensor ref = Tensor::Empty({m, n});
  simd::QuantMatMul(a.data(), m, q, ref.mutable_data());
  for (int threads : {2, 8}) {
    runtime::SetNumThreads(threads);
    Tensor got = Tensor::Empty({m, n});
    simd::QuantMatMul(a.data(), m, q, got.mutable_data());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          sizeof(float) * static_cast<size_t>(m * n)),
              0)
        << threads << " threads";
  }
  runtime::SetNumThreads(saved);
}

TEST(QuantTest, LinearQuantForwardCloseToFp32) {
  Rng rng(24);
  nn::Linear fc(32, 16, &rng);
  Tensor x = Tensor::RandN({4, 32}, &rng);

  Tensor fp32 = fc.Forward(ag::Constant(x)).value();
  Tensor q8;
  {
    simd::ScopedQuantMode quant(true);
    ag::NoGradGuard guard;
    q8 = fc.Forward(ag::Constant(x)).value();
  }
  ASSERT_EQ(q8.shape(), fp32.shape());
  for (int64_t i = 0; i < q8.numel(); ++i) {
    EXPECT_NEAR(q8.data()[i], fp32.data()[i], 0.15f) << i;
  }
}

TEST(QuantTest, QuantModeRequiresNoGrad) {
  // With gradients enabled the quantized path must stay out of the way —
  // training always sees the differentiable fp32 matmul.
  Rng rng(25);
  nn::Linear fc(8, 4, &rng);
  Tensor x = Tensor::RandN({2, 8}, &rng);
  Tensor fp32 = fc.Forward(ag::Constant(x)).value();
  simd::ScopedQuantMode quant(true);
  ag::Var w(x, true);  // grad-enabled input turns ag::GradEnabled() on
  Tensor got = fc.Forward(w).value();
  EXPECT_EQ(std::memcmp(got.data(), fp32.data(),
                        sizeof(float) * static_cast<size_t>(got.numel())),
            0);
}

// ---------------------------------------------------------------------------
// Quantized checkpoints

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

nn::ForwardContext EvalCtx() { return nn::ForwardContext{false, nullptr}; }

TEST(QuantCheckpointTest, SaveLoadPredictBitIdentical) {
  Rng rng(31);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  const std::string path = ::testing::TempDir() + "/quant_model.q8.ckpt";
  ASSERT_TRUE(nn::SaveQuantizedCheckpoint(model, path).ok());
  const auto is_quant = nn::IsQuantizedCheckpoint(path);
  ASSERT_TRUE(is_quant.ok());
  EXPECT_TRUE(*is_quant);

  Rng rng2(99);
  Tensor x = Tensor::RandN({3, 64, 2}, &rng2);

  simd::ScopedQuantMode quant(true);
  ag::NoGradGuard guard;

  // Two independent loads into fresh models serve identical bits, at any
  // thread count: the stored int8 images are adopted verbatim and the
  // arithmetic is exact.
  Rng ra(1), rb(2);
  models::MomentModel ma(models::MomentTestConfig(), &ra);
  models::MomentModel mb(models::MomentTestConfig(), &rb);
  ASSERT_TRUE(nn::LoadCheckpoint(&ma, path).ok());
  ASSERT_TRUE(nn::LoadCheckpoint(&mb, path).ok());

  const int saved = runtime::NumThreads();
  runtime::SetNumThreads(1);
  Tensor ref = ma.EncodeChannels(ag::Constant(x), EvalCtx()).value();
  for (int threads : {1, 2, 8}) {
    runtime::SetNumThreads(threads);
    Tensor got_a = ma.EncodeChannels(ag::Constant(x), EvalCtx()).value();
    Tensor got_b = mb.EncodeChannels(ag::Constant(x), EvalCtx()).value();
    const size_t bytes = sizeof(float) * static_cast<size_t>(ref.numel());
    EXPECT_EQ(std::memcmp(got_a.data(), ref.data(), bytes), 0)
        << threads << " threads (model a)";
    EXPECT_EQ(std::memcmp(got_b.data(), ref.data(), bytes), 0)
        << threads << " threads (model b)";
  }
  runtime::SetNumThreads(saved);
  std::remove(path.c_str());
}

TEST(QuantCheckpointTest, TranscodeMatchesDirectSaveByteForByte) {
  Rng rng(32);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  const std::string fp32_path = ::testing::TempDir() + "/tc_fp32.ckpt";
  const std::string q_direct = ::testing::TempDir() + "/tc_direct.q8.ckpt";
  const std::string q_transcode = ::testing::TempDir() + "/tc_trans.q8.ckpt";
  ASSERT_TRUE(nn::SaveCheckpoint(model, fp32_path).ok());
  ASSERT_TRUE(nn::SaveQuantizedCheckpoint(model, q_direct).ok());
  ASSERT_TRUE(nn::QuantizeCheckpointFile(fp32_path, q_transcode).ok());

  const std::string direct = ReadFileBytes(q_direct);
  const std::string transcoded = ReadFileBytes(q_transcode);
  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(direct, transcoded);

  // And the quantized file is meaningfully smaller than the fp32 one.
  const std::string fp32 = ReadFileBytes(fp32_path);
  EXPECT_LT(direct.size(), fp32.size() / 2);

  const auto fp32_is_quant = nn::IsQuantizedCheckpoint(fp32_path);
  ASSERT_TRUE(fp32_is_quant.ok());
  EXPECT_FALSE(*fp32_is_quant);
  std::remove(fp32_path.c_str());
  std::remove(q_direct.c_str());
  std::remove(q_transcode.c_str());
}

TEST(QuantCheckpointTest, QuantizedLoadStaysCloseToFp32Model) {
  Rng rng(33);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  const std::string path = ::testing::TempDir() + "/close.q8.ckpt";
  ASSERT_TRUE(nn::SaveQuantizedCheckpoint(model, path).ok());
  Rng r2(5);
  models::MomentModel loaded(models::MomentTestConfig(), &r2);
  ASSERT_TRUE(nn::LoadCheckpoint(&loaded, path).ok());

  Rng rx(77);
  Tensor x = Tensor::RandN({2, 64, 2}, &rx);
  ag::NoGradGuard guard;
  Tensor ref = model.EncodeChannels(ag::Constant(x), EvalCtx()).value();
  // The loaded model runs fp32 here (quant mode off): its weights are the
  // dequantized images, so embeddings differ only by quantization noise.
  Tensor got = loaded.EncodeChannels(ag::Constant(x), EvalCtx()).value();
  ASSERT_EQ(got.shape(), ref.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], ref.data()[i], 0.05f) << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Mode plumbing

TEST(SimdModeTest, TensorOpsMatchScalarModeClosely) {
  Rng rng(41);
  Tensor x = Tensor::RandN({33, 17}, &rng);
  Tensor exp_ref = Exp(x);
  Tensor gelu_ref = Gelu(x);
  Tensor sm_ref = Softmax(x);
  simd::ScopedSimdMode simd_on(true);
  Tensor exp_simd = Exp(x);
  Tensor gelu_simd = Gelu(x);
  Tensor sm_simd = Softmax(x);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(exp_simd.data()[i], exp_ref.data()[i],
                2e-5f * std::fabs(exp_ref.data()[i]) + 1e-6f);
    EXPECT_NEAR(gelu_simd.data()[i], gelu_ref.data()[i], 1e-5f);
    EXPECT_NEAR(sm_simd.data()[i], sm_ref.data()[i], 1e-5f);
  }
}

TEST(SimdModeTest, ScopedModesRestore) {
  const bool simd_before = simd::SimdEnabled();
  const bool quant_before = simd::QuantModeEnabled();
  {
    simd::ScopedSimdMode a(true);
    simd::ScopedQuantMode b(true);
    EXPECT_TRUE(simd::SimdEnabled());
    EXPECT_TRUE(simd::QuantModeEnabled());
  }
  EXPECT_EQ(simd::SimdEnabled(), simd_before);
  EXPECT_EQ(simd::QuantModeEnabled(), quant_before);
}

}  // namespace
}  // namespace tsfm
