#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/rng.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace tsfm {
namespace {

using ::tsfm::testing::ExpectGradientsMatch;

TEST(VarTest, LeafBasics) {
  ag::Var v(Tensor(Shape{2}, {1, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.value()[1], 2.0f);
  EXPECT_EQ(v.grad()[0], 0.0f);  // zeros before backward
}

TEST(VarTest, SimpleBackward) {
  ag::Var x(Tensor(Shape{3}, {1, 2, 3}), true);
  ag::Var loss = ag::SumAll(ag::Square(x));  // sum(x^2), d/dx = 2x
  loss.Backward();
  EXPECT_NEAR(loss.value()[0], 14.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[2], 6.0f, 1e-5f);
}

TEST(VarTest, GradAccumulatesAcrossBackwards) {
  ag::Var x(Tensor(Shape{1}, {3}), true);
  ag::SumAll(ag::Square(x)).Backward();
  ag::SumAll(ag::Square(x)).Backward();
  EXPECT_NEAR(x.grad()[0], 12.0f, 1e-5f);  // 6 + 6
  x.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

TEST(VarTest, DiamondDependencyGradient) {
  // y = x*x + x*x uses x through two paths.
  ag::Var x(Tensor(Shape{1}, {5}), true);
  ag::Var sq = ag::Square(x);
  ag::Var y = ag::SumAll(ag::Add(sq, sq));
  y.Backward();
  EXPECT_NEAR(x.grad()[0], 20.0f, 1e-4f);  // 2 * 2x
}

TEST(VarTest, DetachBlocksGradient) {
  ag::Var x(Tensor(Shape{1}, {2}), true);
  ag::Var d = ag::Square(x).Detach();
  ag::Var y = ag::SumAll(ag::Mul(ag::Square(x), d));  // treat d as constant 4
  y.Backward();
  EXPECT_NEAR(x.grad()[0], 16.0f, 1e-4f);  // 4 * 2x
}

TEST(VarTest, NoGradGuardDisablesTape) {
  ag::Var x(Tensor(Shape{1}, {2}), true);
  ag::NoGradGuard guard;
  ag::Var y = ag::Square(x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VarTest, FrozenLeafPassesActivationGradientOnly) {
  // y = sum(x @ w): with w frozen, x still gets d/dx = rows of sum(w) while
  // w receives no gradient at all.
  ag::Var x(Tensor(Shape{1, 2}, {1, 2}), true);
  ag::Var w(Tensor(Shape{2, 2}, {1, 2, 3, 4}), true);
  w.set_requires_grad(false);
  EXPECT_FALSE(w.requires_grad());
  ag::SumAll(ag::MatMul(x, w)).Backward();
  EXPECT_NEAR(x.grad()[0], 3.0f, 1e-6f);
  EXPECT_NEAR(x.grad()[1], 7.0f, 1e-6f);
  EXPECT_FALSE(w.node()->has_grad);
  // A node fed only by frozen leaves is constant-folded.
  EXPECT_FALSE(ag::Square(w).requires_grad());
  w.set_requires_grad(true);
  EXPECT_TRUE(w.requires_grad());
}

TEST(VarDeathTest, BackwardNeedsScalar) {
  ag::Var x(Tensor(Shape{2}, {1, 2}), true);
  EXPECT_DEATH(ag::Square(x).Backward(), "scalar");
}

TEST(VarDeathTest, SetRequiresGradOnlyOnLeaves) {
  ag::Var x(Tensor(Shape{2}, {1, 2}), true);
  ag::Var y = ag::Square(x);
  EXPECT_DEATH(y.set_requires_grad(false), "interior node Square");
}

// With tracing on, Backward records one `autograd.backward` span and, inside
// it, one span per backward closure named by its op.
TEST(VarTest, BackwardRecordsOneSpanPerOp) {
  Rng rng(3);
  ag::Var x(Tensor::RandN({4, 5}, &rng), true);
  ag::Var w(Tensor::RandN({5, 3}, &rng), true);
  ag::Var loss = ag::CrossEntropy(ag::Gelu(ag::MatMul(x, w)), {0, 2, 1, 0});
  obs::EnableTracing();
  obs::ClearTrace();
  loss.Backward();
  obs::DisableTracing();
  const obs::Profile profile = obs::Profile::FromCurrentTrace();
  obs::ClearTrace();
  std::set<std::string> paths;
  for (const obs::ProfileNode& n : profile.nodes()) paths.insert(n.path);
  EXPECT_EQ(paths.count("autograd.backward"), 1u);
  for (const char* op : {"MatMul", "Gelu", "CrossEntropy"}) {
    EXPECT_EQ(paths.count(std::string("autograd.backward;") + op), 1u) << op;
  }
  // Leaves have no backward closure and so no span.
  EXPECT_EQ(paths.count("autograd.backward;leaf"), 0u);
}

// ----------------------------- Gradchecks ---------------------------------

Tensor SmallInput(uint64_t seed, Shape shape = {2, 3}) {
  Rng rng(seed);
  return Tensor::RandN(std::move(shape), &rng, 0.8f);
}

TEST(GradcheckTest, AddBroadcast) {
  Rng rng(1);
  Tensor b = Tensor::RandN({3}, &rng);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return ag::SumAll(ag::Mul(ag::Add(x, ag::Constant(b)),
                                  ag::Add(x, ag::Constant(b))));
      },
      SmallInput(100));
}

TEST(GradcheckTest, BroadcastGradReachesSmallOperand) {
  // Gradient w.r.t. the *broadcast* operand (the bias) must sum over rows.
  Tensor a = SmallInput(101, {4, 3});
  ExpectGradientsMatch(
      [&](const ag::Var& bias) {
        return ag::SumAll(ag::Square(ag::Add(ag::Constant(a), bias)));
      },
      SmallInput(102, {3}));
}

TEST(GradcheckTest, SubMulDiv) {
  Tensor other = AddScalar(Abs(SmallInput(103)), 0.5f);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        ag::Var c = ag::Constant(other);
        return ag::SumAll(ag::Div(ag::Mul(ag::Sub(x, c), x), c));
      },
      SmallInput(104));
}

TEST(GradcheckTest, DivByVariable) {
  Tensor numer = SmallInput(105);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        // x bounded away from 0: add 3.
        return ag::SumAll(ag::Div(ag::Constant(numer), ag::AddScalar(x, 3.0f)));
      },
      Abs(SmallInput(106)));
}

TEST(GradcheckTest, UnaryChain) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        return ag::MeanAll(ag::Exp(ag::Neg(ag::Square(x))));
      },
      SmallInput(107));
}

TEST(GradcheckTest, LogSqrt) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        ag::Var pos = ag::AddScalar(ag::Square(x), 1.0f);
        return ag::SumAll(ag::Log(ag::Sqrt(pos)));
      },
      SmallInput(108));
}

TEST(GradcheckTest, TanhSigmoid) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        return ag::SumAll(ag::Mul(ag::Tanh(x), ag::Sigmoid(x)));
      },
      SmallInput(109));
}

TEST(GradcheckTest, Gelu) {
  ExpectGradientsMatch(
      [](const ag::Var& x) { return ag::SumAll(ag::Gelu(x)); },
      SmallInput(110));
}

TEST(GradcheckTest, GeluSaturatedGradientIsFinite) {
  // The forward returns x for x >= 8 and -0 for x <= -8, so the derivative
  // there is exactly 1 and 0. The unguarded tanh formula overflows x^3 at
  // these magnitudes and returned NaN.
  const float inf = std::numeric_limits<float>::infinity();
  ag::Var x(Tensor(Shape{6}, {-inf, inf, 3e38f, -3e38f, 8.0f, -8.0f}), true);
  ag::SumAll(ag::Gelu(x)).Backward();
  const float want[6] = {0.0f, 1.0f, 1.0f, 0.0f, 1.0f, 0.0f};
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(x.grad()[i], want[i]) << "x = " << x.value()[i];
  }
}

TEST(GradcheckTest, ReluAwayFromKink) {
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor x = SmallInput(111);
  for (int64_t i = 0; i < x.numel(); ++i) {
    float& v = x.mutable_data()[i];
    if (std::fabs(v) < 0.2f) v = 0.3f;
  }
  ExpectGradientsMatch(
      [](const ag::Var& x) { return ag::SumAll(ag::Relu(x)); }, x);
}

TEST(GradcheckTest, MatMulLeft) {
  Tensor w = SmallInput(112, {3, 4});
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return ag::SumAll(ag::Square(ag::MatMul(x, ag::Constant(w))));
      },
      SmallInput(113, {2, 3}));
}

TEST(GradcheckTest, MatMulRight) {
  Tensor a = SmallInput(114, {2, 3});
  ExpectGradientsMatch(
      [&](const ag::Var& w) {
        return ag::SumAll(ag::Square(ag::MatMul(ag::Constant(a), w)));
      },
      SmallInput(115, {3, 4}));
}

TEST(GradcheckTest, BatchedMatMulWithBroadcast) {
  Tensor a = SmallInput(116, {2, 2, 3});  // batch of 2
  ExpectGradientsMatch(
      [&](const ag::Var& w) {  // w (3, 2) broadcast over batch
        return ag::SumAll(ag::Square(ag::MatMul(ag::Constant(a), w)));
      },
      SmallInput(117, {3, 2}));
}

TEST(GradcheckTest, TransposeAndPermute) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        ag::Var t = ag::TransposeLast2(x);
        return ag::SumAll(ag::Square(ag::MatMul(x, t)));
      },
      SmallInput(118, {3, 3}));
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        return ag::SumAll(ag::Square(ag::Permute(x, {2, 0, 1})));
      },
      SmallInput(119, {2, 3, 2}));
}

TEST(GradcheckTest, ReshapeSliceConcat) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        ag::Var r = ag::Reshape(x, {3, 2});
        ag::Var top = ag::SliceOp(r, 0, 0, 2);
        ag::Var bottom = ag::SliceOp(r, 0, 1, 3);
        return ag::SumAll(ag::Square(ag::ConcatOp({top, bottom}, 1)));
      },
      SmallInput(120));
}

TEST(GradcheckTest, SumMeanAxes) {
  ExpectGradientsMatch(
      [](const ag::Var& x) {
        ag::Var s = ag::SumAxis(x, 0, /*keepdim=*/false);
        ag::Var m = ag::MeanAxis(x, 1, /*keepdim=*/true);
        return ag::Add(ag::SumAll(ag::Square(s)), ag::SumAll(ag::Square(m)));
      },
      SmallInput(121));
}

TEST(GradcheckTest, Softmax) {
  Rng rng(2);
  Tensor target = Tensor::RandN({2, 4}, &rng);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        ag::Var p = ag::Softmax(x);
        return ag::SumAll(ag::Mul(p, ag::Constant(target)));
      },
      SmallInput(122, {2, 4}));
}

TEST(GradcheckTest, LogSoftmax) {
  Rng rng(3);
  Tensor target = Tensor::RandN({2, 4}, &rng);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return ag::SumAll(ag::Mul(ag::LogSoftmax(x), ag::Constant(target)));
      },
      SmallInput(123, {2, 4}));
}

TEST(GradcheckTest, LayerNorm) {
  Rng rng(4);
  Tensor gamma = Tensor::RandUniform({4}, &rng, 0.5f, 1.5f);
  Tensor beta = Tensor::RandN({4}, &rng, 0.1f);
  ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return ag::SumAll(ag::Square(ag::LayerNorm(
            x, ag::Constant(gamma), ag::Constant(beta))));
      },
      SmallInput(124, {3, 4}), /*epsilon=*/5e-3f, /*rtol=*/8e-2f,
      /*atol=*/8e-3f);
}

TEST(GradcheckTest, LayerNormGammaBeta) {
  Tensor x = SmallInput(125, {3, 4});
  Tensor beta = Tensor::Zeros({4});
  ExpectGradientsMatch(
      [&](const ag::Var& gamma) {
        return ag::SumAll(ag::Square(
            ag::LayerNorm(ag::Constant(x), gamma, ag::Constant(beta))));
      },
      Tensor::Ones({4}));
}

TEST(GradcheckTest, CrossEntropy) {
  std::vector<int64_t> labels{1, 0, 2};
  ExpectGradientsMatch(
      [&](const ag::Var& logits) { return ag::CrossEntropy(logits, labels); },
      SmallInput(126, {3, 3}));
}

TEST(GradcheckTest, MseLoss) {
  Rng rng(5);
  Tensor target = Tensor::RandN({2, 3}, &rng);
  ExpectGradientsMatch(
      [&](const ag::Var& pred) { return ag::MseLoss(pred, target); },
      SmallInput(127));
}

TEST(GradcheckTest, MaskedMseLoss) {
  Rng rng(6);
  Tensor target = Tensor::RandN({2, 4}, &rng);
  Tensor mask(Shape{2, 4}, {1, 0, 1, 0, 0, 1, 1, 0});
  ExpectGradientsMatch(
      [&](const ag::Var& pred) {
        return ag::MaskedMseLoss(pred, target, mask);
      },
      SmallInput(128, {2, 4}));
}

TEST(GradcheckTest, L2NormalizeAndInfoNce) {
  Tensor pos = SmallInput(129, {3, 4});
  ExpectGradientsMatch(
      [&](const ag::Var& anchors) {
        return ag::InfoNceLoss(anchors, ag::Constant(pos), 0.5f);
      },
      SmallInput(130, {3, 4}), /*epsilon=*/5e-3f, /*rtol=*/8e-2f,
      /*atol=*/8e-3f);
}

// ------------------------- Behavioural checks ------------------------------

TEST(LossTest, CrossEntropyOfUniformLogitsIsLogC) {
  ag::Var logits(Tensor::Zeros({4, 5}), true);
  ag::Var loss = ag::CrossEntropy(logits, {0, 1, 2, 3});
  EXPECT_NEAR(loss.value()[0], std::log(5.0f), 1e-5f);
}

TEST(LossTest, PerfectPredictionLowLoss) {
  Tensor logits(Shape{2, 2}, {100, -100, -100, 100});
  ag::Var loss = ag::CrossEntropy(ag::Var(logits, true), {0, 1});
  EXPECT_LT(loss.value()[0], 1e-4f);
}

TEST(LossTest, MaskedMseIgnoresUnmasked) {
  Tensor target = Tensor::Zeros({1, 4});
  Tensor mask(Shape{1, 4}, {1, 0, 0, 0});
  // Prediction wrong everywhere except position 0.
  Tensor pred(Shape{1, 4}, {0, 100, 100, 100});
  ag::Var loss = ag::MaskedMseLoss(ag::Var(pred, true), target, mask);
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-6f);
}

TEST(LossTest, InfoNcePrefersAlignedPairs) {
  Rng rng(7);
  Tensor e = Tensor::RandN({6, 8}, &rng);
  // Perfectly aligned pairs -> lower loss than mismatched pairs.
  ag::Var aligned = ag::InfoNceLoss(ag::Var(e, true), ag::Constant(e), 0.2f);
  Tensor shuffled = TakeRows(e, {1, 2, 3, 4, 5, 0});
  ag::Var mismatched =
      ag::InfoNceLoss(ag::Var(e, true), ag::Constant(shuffled), 0.2f);
  EXPECT_LT(aligned.value()[0], mismatched.value()[0]);
}

TEST(DropoutTest, IdentityWhenEval) {
  Rng rng(8);
  Tensor x = Tensor::RandN({4, 4}, &rng);
  ag::Var out = ag::Dropout(ag::Var(x, true), 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(AllClose(out.value(), x));
}

TEST(DropoutTest, PreservesExpectationInTraining) {
  Rng rng(9);
  Tensor x = Tensor::Ones({10000});
  ag::Var out = ag::Dropout(ag::Var(x, true), 0.3f, /*training=*/true, &rng);
  EXPECT_NEAR(MeanAll(out.value()), 1.0f, 0.05f);
}

}  // namespace
}  // namespace tsfm
