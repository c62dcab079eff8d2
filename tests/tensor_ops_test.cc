#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simd/simd_math.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

TEST(BroadcastTest, Shapes) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 1, 4}, {3, 1}), (Shape{2, 3, 4}));
  EXPECT_EQ(BroadcastShapes({}, {2, 2}), (Shape{2, 2}));
}

TEST(BroadcastTest, Compatibility) {
  EXPECT_TRUE(ShapesBroadcastable({2, 3}, {1, 3}));
  EXPECT_FALSE(ShapesBroadcastable({2, 3}, {2, 4}));
  EXPECT_TRUE(ShapesBroadcastable({5}, {4, 1}));
}

TEST(ElementwiseTest, AddSameShape) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({1, 1}), 44.0f);
}

TEST(ElementwiseTest, AddBroadcastBias) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias(Shape{3}, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(ElementwiseTest, MulBroadcastColumn) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col(Shape{2, 1}, {2, 3});
  Tensor c = Mul(a, col);
  EXPECT_EQ(c.at({0, 2}), 6.0f);
  EXPECT_EQ(c.at({1, 0}), 12.0f);
}

TEST(ElementwiseTest, SubDivMaximum) {
  Tensor a(Shape{3}, {4, 9, 16});
  Tensor b(Shape{3}, {2, 3, 4});
  EXPECT_EQ(Sub(a, b)[1], 6.0f);
  EXPECT_EQ(Div(a, b)[2], 4.0f);
  EXPECT_EQ(Maximum(a, b)[0], 4.0f);
}

TEST(ElementwiseTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor g(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ReduceToShape(g, Shape{3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r[0], 5.0f);
  EXPECT_EQ(r[2], 9.0f);
  Tensor r2 = ReduceToShape(g, Shape{2, 1});
  EXPECT_EQ(r2.at({0, 0}), 6.0f);
  EXPECT_EQ(r2.at({1, 0}), 15.0f);
}

TEST(UnaryTest, Basics) {
  Tensor t(Shape{3}, {-1, 0, 2});
  EXPECT_EQ(Neg(t)[0], 1.0f);
  EXPECT_EQ(Relu(t)[0], 0.0f);
  EXPECT_EQ(Relu(t)[2], 2.0f);
  EXPECT_EQ(Abs(t)[0], 1.0f);
  EXPECT_EQ(Square(t)[2], 4.0f);
  EXPECT_NEAR(Exp(t)[1], 1.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(t)[1], 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(t)[1], 0.0f, 1e-6f);
  EXPECT_EQ(Scale(t, 3.0f)[2], 6.0f);
  EXPECT_EQ(AddScalar(t, 1.0f)[0], 0.0f);
  EXPECT_NEAR(Pow(Tensor(Shape{1}, {4.0f}), 0.5f)[0], 2.0f, 1e-6f);
}

TEST(UnaryTest, GeluKnownValues) {
  // GELU(0) = 0; GELU(x) ~ x for large x; GELU(-large) ~ 0.
  Tensor t(Shape{3}, {0.0f, 5.0f, -5.0f});
  Tensor g = Gelu(t);
  EXPECT_NEAR(g[0], 0.0f, 1e-6f);
  EXPECT_NEAR(g[1], 5.0f, 1e-3f);
  EXPECT_NEAR(g[2], 0.0f, 1e-3f);
}

TEST(MatMulTest, Matches2x2) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_EQ(c.at({1, 1}), 50.0f);
}

TEST(MatMulTest, RectangularAgainstManual) {
  Rng rng(1);
  Tensor a = Tensor::RandN({3, 5}, &rng);
  Tensor b = Tensor::RandN({5, 4}, &rng);
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 4}));
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      float expect = 0;
      for (int64_t k = 0; k < 5; ++k) expect += a.at({i, k}) * b.at({k, j});
      EXPECT_NEAR(c.at({i, j}), expect, 1e-4f);
    }
  }
}

TEST(MatMulTest, BatchedEqualBatches) {
  Rng rng(2);
  Tensor a = Tensor::RandN({4, 2, 3}, &rng);
  Tensor b = Tensor::RandN({4, 3, 2}, &rng);
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{4, 2, 2}));
  // Check batch 2 against the unbatched product.
  Tensor a2 = Slice(a, 0, 2, 3).Reshape({2, 3});
  Tensor b2 = Slice(b, 0, 2, 3).Reshape({3, 2});
  Tensor c2 = MatMul(a2, b2);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(c.at({2, i, j}), c2.at({i, j}), 1e-5f);
    }
  }
}

// A 2-D right operand folds a's batch dims into rows, so register tiles
// straddle batch entries. Every entry must still match its own 2-D product
// bit for bit: m off the 6-row tile, n below and off every column-tile
// width (8, 16, 32), a permuted (non-contiguous) left operand, and a NaN
// row that must poison its own output row only.
TEST(MatMulTest, FoldedBatchMatchesPerSliceProducts) {
  Rng rng(5);
  const int64_t batch = 5;
  const int64_t k = 19;
  for (int64_t m : {2, 7, 8, 13}) {
    for (int64_t n : {3, 21, 45, 64}) {
      for (bool permuted : {false, true}) {
        Tensor src = permuted ? Tensor::RandN({batch, k, m}, &rng)
                              : Tensor::RandN({batch, m, k}, &rng);
        for (int64_t i = 0; i < k; ++i) {  // row 1 of batch entry 2
          (permuted ? src.at({2, i, 1}) : src.at({2, 1, i})) =
              std::numeric_limits<float>::quiet_NaN();
        }
        const Tensor a = permuted ? Permute(src, {0, 2, 1}) : src;
        ASSERT_EQ(a.is_contiguous(), !permuted);
        const Tensor b = Tensor::RandN({k, n}, &rng);
        const Tensor c = MatMul(a, b);
        ASSERT_EQ(c.shape(), (Shape{batch, m, n}));
        for (int64_t s = 0; s < batch; ++s) {
          const Tensor as = Slice(a, 0, s, s + 1).Contiguous().Reshape({m, k});
          const Tensor want = MatMul(as, b);
          const Tensor got = Slice(c, 0, s, s + 1).Contiguous();
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                sizeof(float) * static_cast<size_t>(m * n)),
                    0)
              << "m=" << m << " n=" << n << " permuted=" << permuted
              << " batch entry " << s;
        }
        EXPECT_TRUE(std::isnan(c.at({2, 1, 0})));
        EXPECT_FALSE(std::isnan(c.at({2, 0, 0})));
      }
    }
  }
}

TEST(MatMulTest, BroadcastsBatchDims) {
  Rng rng(3);
  Tensor a = Tensor::RandN({4, 2, 3}, &rng);
  Tensor w = Tensor::RandN({3, 5}, &rng);  // no batch dims -> broadcast
  Tensor c = MatMul(a, w);
  ASSERT_EQ(c.shape(), (Shape{4, 2, 5}));
  Tensor a0 = Slice(a, 0, 1, 2).Reshape({2, 3});
  Tensor c0 = MatMul(a0, w);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c.at({1, i, j}), c0.at({i, j}), 1e-5f);
    }
  }
}

TEST(LayoutTest, TransposeLast2) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = TransposeLast2(a);
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0f);
  EXPECT_EQ(t.at({2, 0}), 3.0f);
}

TEST(LayoutTest, PermuteRoundTrip) {
  Rng rng(4);
  Tensor a = Tensor::RandN({2, 3, 4, 5}, &rng);
  Tensor p = Permute(a, {0, 2, 1, 3});
  ASSERT_EQ(p.shape(), (Shape{2, 4, 3, 5}));
  Tensor back = Permute(p, {0, 2, 1, 3});
  EXPECT_TRUE(AllClose(a, back));
  EXPECT_EQ(p.at({1, 3, 2, 4}), a.at({1, 2, 3, 4}));
}

TEST(LayoutTest, SliceMiddleAxis) {
  Tensor a(Shape{2, 4, 2});
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.mutable_data()[i] = static_cast<float>(i);
  }
  Tensor s = Slice(a, 1, 1, 3);
  ASSERT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(s.at({0, 0, 0}), a.at({0, 1, 0}));
  EXPECT_EQ(s.at({1, 1, 1}), a.at({1, 2, 1}));
}

TEST(LayoutTest, ConcatAxis1) {
  Tensor a = Tensor::Full({2, 1, 2}, 1.0f);
  Tensor b = Tensor::Full({2, 2, 2}, 2.0f);
  Tensor c = Concat({a, b}, 1);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 2}));
  EXPECT_EQ(c.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(c.at({0, 2, 1}), 2.0f);
  EXPECT_EQ(c.at({1, 1, 0}), 2.0f);
}

TEST(LayoutTest, ConcatThenSliceInverts) {
  Rng rng(5);
  Tensor a = Tensor::RandN({3, 2}, &rng);
  Tensor b = Tensor::RandN({3, 4}, &rng);
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(Slice(c, 1, 0, 2), a));
  EXPECT_TRUE(AllClose(Slice(c, 1, 2, 6), b));
}

TEST(LayoutTest, TakeRows) {
  Tensor a(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor picked = TakeRows(a, {2, 0, 2});
  ASSERT_EQ(picked.shape(), (Shape{3, 2}));
  EXPECT_EQ(picked.at({0, 0}), 5.0f);
  EXPECT_EQ(picked.at({1, 1}), 2.0f);
  EXPECT_EQ(picked.at({2, 0}), 5.0f);
}

TEST(ReductionTest, GlobalReductions) {
  Tensor t(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(SumAll(t), 10.0f);
  EXPECT_EQ(MeanAll(t), 2.5f);
  EXPECT_EQ(MaxAll(t), 4.0f);
  EXPECT_EQ(MinAll(t), 1.0f);
}

TEST(ReductionTest, SumAxis) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(t, 0);
  ASSERT_EQ(s0.shape(), (Shape{3}));
  EXPECT_EQ(s0[0], 5.0f);
  Tensor s1k = Sum(t, 1, /*keepdim=*/true);
  ASSERT_EQ(s1k.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1k.at({1, 0}), 15.0f);
  Tensor sneg = Sum(t, -1);
  EXPECT_EQ(sneg[0], 6.0f);
}

TEST(ReductionTest, MeanVariance) {
  Tensor t(Shape{1, 4}, {2, 4, 6, 8});
  EXPECT_EQ(Mean(t, 1)[0], 5.0f);
  EXPECT_EQ(Variance(t, 1)[0], 5.0f);  // population variance
}

TEST(ReductionTest, MaxAlongAndArgMax) {
  Tensor t(Shape{2, 3}, {1, 9, 3, 7, 2, 5});
  Tensor m = MaxAlong(t, 1);
  EXPECT_EQ(m[0], 9.0f);
  EXPECT_EQ(m[1], 7.0f);
  auto arg = ArgMaxLast(t);
  EXPECT_EQ(arg[0], 1);
  EXPECT_EQ(arg[1], 0);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(6);
  Tensor t = Tensor::RandN({4, 7}, &rng, 3.0f);
  Tensor s = Softmax(t);
  for (int64_t i = 0; i < 4; ++i) {
    float sum = 0;
    for (int64_t j = 0; j < 7; ++j) {
      const float v = s.at({i, j});
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableForLargeLogits) {
  Tensor t(Shape{1, 2}, {1000.0f, 999.0f});
  Tensor s = Softmax(t);
  EXPECT_TRUE(std::isfinite(s[0]));
  EXPECT_NEAR(s[0] + s[1], 1.0f, 1e-6f);
  EXPECT_GT(s[0], s[1]);
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(7);
  Tensor t = Tensor::RandN({3, 5}, &rng);
  Tensor ls = LogSoftmax(t);
  Tensor ref = Log(Softmax(t));
  EXPECT_LT(MaxAbsDiff(ls, ref), 1e-5f);
}

// ---------------------------------------------------------------------------
// Non-finite edge contract for softmax/log-softmax. Before the fix, a +inf
// or all--inf row produced inf-inf = NaN garbage; now: NaN anywhere poisons
// the row, all--inf rows are uniform, +inf entries split the probability
// mass.

constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();

TEST(SoftmaxTest, NonFiniteEdgeContract) {
  // Row 0: ordinary finite logits. Row 1: +FLT_MAX dominates but stays
  // finite. Row 2: one NaN. Row 3: all -inf. Row 4: two +inf entries.
  const float mx = std::numeric_limits<float>::max();
  Tensor t(Shape{5, 4}, {0.5f,  -1.0f, 2.0f,  0.0f,      //
                         mx,    0.0f,  -mx,   1.0f,      //
                         1.0f,  kNanF, 2.0f,  3.0f,      //
                         -kInfF, -kInfF, -kInfF, -kInfF,  //
                         0.0f,  kInfF, kInfF, -kInfF});
  Tensor s = Softmax(t);
  float sum0 = 0.0f;
  for (int64_t j = 0; j < 4; ++j) sum0 += s.at({0, j});
  EXPECT_NEAR(sum0, 1.0f, 1e-5f);

  EXPECT_NEAR(s.at({1, 0}), 1.0f, 1e-6f);
  EXPECT_NEAR(s.at({1, 2}), 0.0f, 1e-6f);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(std::isfinite(s.at({1, j}))) << "j=" << j;
    EXPECT_TRUE(std::isnan(s.at({2, j}))) << "j=" << j;
    EXPECT_EQ(s.at({3, j}), 0.25f) << "j=" << j;
  }
  EXPECT_EQ(s.at({4, 0}), 0.0f);
  EXPECT_EQ(s.at({4, 1}), 0.5f);
  EXPECT_EQ(s.at({4, 2}), 0.5f);
  EXPECT_EQ(s.at({4, 3}), 0.0f);

  Tensor ls = LogSoftmax(t);
  EXPECT_NEAR(ls.at({1, 0}), 0.0f, 1e-6f);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(std::isnan(ls.at({2, j}))) << "j=" << j;
    EXPECT_NEAR(ls.at({3, j}), -std::log(4.0f), 1e-6f) << "j=" << j;
  }
  EXPECT_EQ(ls.at({4, 0}), -kInfF);
  EXPECT_NEAR(ls.at({4, 1}), -std::log(2.0f), 1e-6f);
  EXPECT_EQ(ls.at({4, 3}), -kInfF);
}

// ---------------------------------------------------------------------------
// GELU numerical-edge contract. Without its saturation guard, GELU(-inf)
// would evaluate inf * 0 = NaN; simd::GeluS returns the asymptote instead,
// and the tanh form already sits on it to float precision inside |x| = 8.

TEST(UnaryTest, GeluEdgeValues) {
  const float mx = std::numeric_limits<float>::max();
  Tensor t(Shape{8}, {kInfF, -kInfF, kNanF, mx, -mx, 1e30f, -1e30f, -3000.0f});
  Tensor g = Gelu(t);
  EXPECT_EQ(g[0], kInfF);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_TRUE(std::signbit(g[1]));  // -0.0: the left asymptote from below
  EXPECT_TRUE(std::isnan(g[2]));
  EXPECT_EQ(g[3], mx);   // x^3 would overflow; the guard short-circuits
  EXPECT_EQ(g[4], 0.0f);
  EXPECT_EQ(g[5], 1e30f);
  EXPECT_EQ(g[6], 0.0f);
  EXPECT_EQ(g[7], 0.0f);
}

TEST(UnaryTest, GeluFiniteAndTailMonotoneEverywhere) {
  // Finite in -> finite out, across 15 decades up to FLT_MAX; and the
  // positive tail (x >= 1) is non-decreasing through the guard boundary.
  float prev = 0.0f;
  for (int e = -4; e <= 38; ++e) {
    const float x = std::pow(10.0f, static_cast<float>(e));
    const float gp = simd::GeluS(x);
    const float gn = simd::GeluS(-x);
    EXPECT_TRUE(std::isfinite(gp)) << x;
    EXPECT_TRUE(std::isfinite(gn)) << -x;
    EXPECT_GE(gn, -0.2f) << -x;  // global minimum of GELU is ~ -0.17
    if (e >= 0) {
      EXPECT_GE(gp, prev) << x;
      prev = gp;
    }
  }
  // Dense sweep across the saturation boundary: non-decreasing, no step.
  prev = simd::GeluS(7.9f);
  for (float x = 7.9f; x <= 8.1f; x += 0.001f) {
    const float g = simd::GeluS(x);
    EXPECT_GE(g, prev - 1e-5f) << x;
    EXPECT_NEAR(g, x, 1e-4f) << x;
    prev = g;
  }
}

TEST(UnaryTest, GeluGuardIsContinuousAtSaturation) {
  // Just inside the guard the tanh form must already sit on the asymptote
  // to float precision, otherwise the guard would introduce a step.
  for (float x : {7.5f, 7.9f, 7.999f}) {
    EXPECT_NEAR(simd::GeluS(x), x, 1e-4f) << x;
    EXPECT_NEAR(simd::GeluS(-x), 0.0f, 1e-4f) << -x;
    EXPECT_LE(simd::GeluS(-x), 0.0f) << -x;
  }
  EXPECT_EQ(simd::GeluS(8.0f), 8.0f);
  EXPECT_EQ(simd::GeluS(-8.0f), -0.0f);
  EXPECT_TRUE(std::signbit(simd::GeluS(-8.0f)));
}

TEST(NormTest, KnownValue) {
  Tensor t(Shape{2}, {3, 4});
  EXPECT_NEAR(Norm(t), 5.0f, 1e-6f);
}

TEST(AllCloseTest, RespectsTolerance) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b(Shape{2}, {1.0f, 2.00001f});
  EXPECT_TRUE(AllClose(a, b, 1e-4f));
  EXPECT_FALSE(AllClose(a, b, 1e-7f));
  Tensor c(Shape{3});
  EXPECT_FALSE(AllClose(a, c));  // shape mismatch
}

}  // namespace
}  // namespace tsfm
