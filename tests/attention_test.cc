// The fused attention node (ag::Attention over tsfm::Attention and
// AttentionBackward) against the composed ops it replaces: split heads,
// MatMul(q, kᵀ), Scale, Softmax, Dropout, MatMul(·, v), merge heads. Its
// contract is the same bits, so outputs and gradients are compared with
// memcmp, at 1, 2 and 8 threads, and a finite-difference check pins the
// gradients themselves.

#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace tsfm {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// The encoder's attention core as composed ops, on (N, S, E) projections.
ag::Var ComposedAttention(const ag::Var& q, const ag::Var& k,
                          const ag::Var& v, int64_t heads, float p,
                          bool training, Rng* rng) {
  const int64_t n = q.dim(0), s = q.dim(1), e = q.dim(2), dh = e / heads;
  auto split = [&](const ag::Var& t) {
    return ag::Permute(ag::Reshape(t, Shape{n, s, heads, dh}), {0, 2, 1, 3});
  };
  const ag::Var qh = split(q), kh = split(k), vh = split(v);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  ag::Var attn =
      ag::Softmax(ag::Scale(ag::MatMul(qh, ag::TransposeLast2(kh)), scale));
  attn = ag::Dropout(attn, p, training, rng);
  return ag::Reshape(ag::Permute(ag::MatMul(attn, vh), {0, 2, 1, 3}),
                     Shape{n, s, e});
}

::testing::AssertionResult SameBits(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << ShapeToString(got.shape()) << " vs "
           << ShapeToString(want.shape());
  }
  const Tensor g = got.Contiguous(), w = want.Contiguous();
  if (std::memcmp(g.data(), w.data(),
                  sizeof(float) * static_cast<size_t>(g.numel())) != 0) {
    return ::testing::AssertionFailure()
           << "bits differ, max |diff| " << MaxAbsDiff(g, w);
  }
  return ::testing::AssertionSuccess();
}

enum class Mode { kNoGrad, kTape, kTrainingDropout };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kNoGrad: return "no-grad";
    case Mode::kTape: return "tape";
    case Mode::kTrainingDropout: return "training p=0.1";
  }
  return "?";
}

struct CoreRun {
  Tensor out, dq, dk, dv;
  float next_draw = 0.0f;  // the Rng's next Uniform(): same draws consumed
};

// One forward of the fused or composed core; with a tape, the backward of
// Σ w ⊙ out.
CoreRun RunCore(bool fused, Mode mode, const Tensor& q0, const Tensor& k0,
                const Tensor& v0, const Tensor& w, int64_t heads) {
  const bool grad = mode != Mode::kNoGrad;
  const bool training = mode == Mode::kTrainingDropout;
  const float p = training ? 0.1f : 0.0f;
  Rng rng(99);
  ag::Var q(q0.Clone(), grad), k(k0.Clone(), grad), v(v0.Clone(), grad);
  std::optional<ag::NoGradGuard> no_grad;
  if (!grad) no_grad.emplace();
  const ag::Var out =
      fused ? ag::Attention(q, k, v, heads, p, training, &rng)
            : ComposedAttention(q, k, v, heads, p, training, &rng);
  CoreRun r;
  r.out = out.value().Contiguous();
  r.next_draw = rng.Uniform();
  if (grad) {
    ag::SumAll(ag::Mul(out, ag::Constant(w))).Backward();
    r.dq = q.grad();
    r.dk = k.grad();
    r.dv = v.grad();
  }
  return r;
}

class AttentionTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = runtime::NumThreads(); }
  void TearDown() override { runtime::SetNumThreads(saved_); }
  int saved_ = 1;
};

// Output and dQ/dK/dV of the node equal the composed ops' bit for bit, for
// sequence lengths below, at and beyond a register tile, and every head
// width the encoders use.
TEST_F(AttentionTest, CoreMatchesComposedOps) {
  constexpr int64_t kSeries = 3, kHeads = 2;
  Rng data_rng(5);
  for (int64_t s : {1, 6, 8, 15, 33, 100}) {
    for (int64_t dh : {8, 12, 16}) {
      const Shape shape{kSeries, s, kHeads * dh};
      const Tensor q = Tensor::RandN(shape, &data_rng);
      const Tensor k = Tensor::RandN(shape, &data_rng);
      const Tensor v = Tensor::RandN(shape, &data_rng);
      const Tensor w = Tensor::RandN(shape, &data_rng);
      for (Mode mode : {Mode::kNoGrad, Mode::kTape, Mode::kTrainingDropout}) {
        runtime::SetNumThreads(1);
        const CoreRun want = RunCore(false, mode, q, k, v, w, kHeads);
        for (int threads : kThreadCounts) {
          runtime::SetNumThreads(threads);
          const CoreRun got = RunCore(true, mode, q, k, v, w, kHeads);
          SCOPED_TRACE(std::string(ModeName(mode)) + " S=" +
                       std::to_string(s) + " Dh=" + std::to_string(dh) +
                       " threads=" + std::to_string(threads));
          EXPECT_TRUE(SameBits(got.out, want.out)) << "output";
          EXPECT_EQ(got.next_draw, want.next_draw) << "dropout draws";
          if (mode == Mode::kNoGrad) continue;
          EXPECT_TRUE(SameBits(got.dq, want.dq)) << "dQ";
          EXPECT_TRUE(SameBits(got.dk, want.dk)) << "dK";
          EXPECT_TRUE(SameBits(got.dv, want.dv)) << "dV";
        }
      }
    }
  }
}

// The longest sequence a model takes (max_patches = 512) runs on pooled
// scratch and still matches the composed ops.
TEST_F(AttentionTest, HandlesMaxPatches) {
  Rng data_rng(10);
  const Shape shape{1, 512, 16};
  const Tensor q = Tensor::RandN(shape, &data_rng);
  const Tensor k = Tensor::RandN(shape, &data_rng);
  const Tensor v = Tensor::RandN(shape, &data_rng);
  const Tensor w = Tensor::RandN(shape, &data_rng);
  runtime::SetNumThreads(2);
  const CoreRun want =
      RunCore(false, Mode::kTrainingDropout, q, k, v, w, 2);
  const CoreRun got = RunCore(true, Mode::kTrainingDropout, q, k, v, w, 2);
  EXPECT_TRUE(SameBits(got.out, want.out)) << "output";
  EXPECT_TRUE(SameBits(got.dq, want.dq)) << "dQ";
  EXPECT_TRUE(SameBits(got.dk, want.dk)) << "dK";
  EXPECT_TRUE(SameBits(got.dv, want.dv)) << "dV";
}

// A gradient is computed only for an input that takes one, and the ones
// that are computed keep their bits.
TEST_F(AttentionTest, BackwardSkipsInputsWithoutGrad) {
  Rng data_rng(6);
  const Shape shape{2, 7, 24};
  const Tensor q0 = Tensor::RandN(shape, &data_rng);
  const Tensor k0 = Tensor::RandN(shape, &data_rng);
  const Tensor v0 = Tensor::RandN(shape, &data_rng);
  const Tensor w = Tensor::RandN(shape, &data_rng);
  const CoreRun all =
      RunCore(true, Mode::kTrainingDropout, q0, k0, v0, w, 2);
  for (int only = 0; only < 3; ++only) {
    Rng rng(99);
    ag::Var q(q0.Clone(), only == 0), k(k0.Clone(), only == 1),
        v(v0.Clone(), only == 2);
    const ag::Var out = ag::Attention(q, k, v, 2, 0.1f, true, &rng);
    ag::SumAll(ag::Mul(out, ag::Constant(w))).Backward();
    const ag::Var* leaves[] = {&q, &k, &v};
    const Tensor* want[] = {&all.dq, &all.dk, &all.dv};
    for (int i = 0; i < 3; ++i) {
      if (i == only) {
        EXPECT_TRUE(SameBits(leaves[i]->grad(), *want[i])) << "input " << i;
      } else {
        EXPECT_FALSE(leaves[i]->node()->has_grad) << "input " << i;
      }
    }
  }
}

// dQ, dK and dV against central finite differences of Σ w ⊙ out.
TEST_F(AttentionTest, GradientsMatchFiniteDifferences) {
  Rng data_rng(7);
  const Shape shape{2, 5, 8};
  const Tensor q = Tensor::RandN(shape, &data_rng, 0.5f);
  const Tensor k = Tensor::RandN(shape, &data_rng, 0.5f);
  const Tensor v = Tensor::RandN(shape, &data_rng, 0.5f);
  const Tensor w = Tensor::RandN(shape, &data_rng);
  auto loss = [&](const ag::Var& qv, const ag::Var& kv, const ag::Var& vv) {
    return ag::SumAll(ag::Mul(
        ag::Attention(qv, kv, vv, 2, 0.0f, false, nullptr), ag::Constant(w)));
  };
  testing::ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return loss(x, ag::Constant(k), ag::Constant(v));
      },
      q);
  testing::ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return loss(ag::Constant(q), x, ag::Constant(v));
      },
      k);
  testing::ExpectGradientsMatch(
      [&](const ag::Var& x) {
        return loss(ag::Constant(q), ag::Constant(k), x);
      },
      v);
}

// The node counts its products' FLOPs in tensor.matmul_flops exactly as the
// composed matmuls did, forward and backward.
TEST_F(AttentionTest, CountsTheComposedMatmulFlops) {
  Rng data_rng(8);
  const Shape shape{3, 9, 32};
  const Tensor q = Tensor::RandN(shape, &data_rng);
  const Tensor k = Tensor::RandN(shape, &data_rng);
  const Tensor v = Tensor::RandN(shape, &data_rng);
  const Tensor w = Tensor::RandN(shape, &data_rng);
  const auto& registry = obs::Registry::Instance();
  auto flops = [&](bool fused, Mode mode) {
    const double before = registry.TakeSnapshot().at("tensor.matmul_flops");
    RunCore(fused, mode, q, k, v, w, 2);
    return registry.TakeSnapshot().at("tensor.matmul_flops") - before;
  };
  for (Mode mode : {Mode::kNoGrad, Mode::kTrainingDropout}) {
    EXPECT_EQ(flops(true, mode), flops(false, mode)) << ModeName(mode);
  }
}

// TransformerEncoderLayer::Forward written out with composed attention, on
// `layer`'s own parameters, drawing dropout masks in the layer's order.
ag::Var ComposedLayer(const nn::TransformerEncoderLayer& layer,
                      const ag::Var& x, int64_t heads, float p,
                      bool training, Rng* rng) {
  std::map<std::string, ag::Var> params;
  for (const auto& [name, var] : layer.NamedParameters()) params[name] = var;
  auto linear = [&](const std::string& name, const ag::Var& in) {
    return ag::Add(ag::MatMul(in, params.at(name + "/weight")),
                   params.at(name + "/bias"));
  };
  auto norm = [&](const std::string& name, const ag::Var& in) {
    return ag::LayerNorm(in, params.at(name + "/gamma"),
                         params.at(name + "/beta"));
  };
  const ag::Var ln1 = norm("norm1", x);
  const ag::Var q = linear("attn/wq", ln1);
  const ag::Var k = linear("attn/wk", ln1);
  const ag::Var v = linear("attn/wv", ln1);
  const ag::Var attn = linear(
      "attn/wo", ComposedAttention(q, k, v, heads, p, training, rng));
  const ag::Var h = ag::Add(x, ag::Dropout(attn, p, training, rng));
  ag::Var f = ag::Gelu(linear("ff/fc1", norm("norm2", h)));
  f = linear("ff/fc2", ag::Dropout(f, p, training, rng));
  return ag::Add(h, ag::Dropout(f, p, training, rng));
}

// A whole encoder layer (MOMENT-small's widths) under a scalar loss: the
// output, the input gradient and every parameter gradient equal those of
// the layer written with composed attention, with the encoder trained or
// frozen.
TEST_F(AttentionTest, EncoderLayerMatchesComposedOps) {
  constexpr int64_t kModel = 64, kHeads = 4, kHidden = 128;
  constexpr float kDropout = 0.1f;
  Rng data_rng(9);
  for (int64_t s : {6, 8}) {
    const Tensor x0 = Tensor::RandN({5, s, kModel}, &data_rng);
    const Tensor w = Tensor::RandN({5, s, kModel}, &data_rng);
    for (Mode mode : {Mode::kNoGrad, Mode::kTape, Mode::kTrainingDropout}) {
      for (bool frozen : {false, true}) {
        if (mode == Mode::kNoGrad && frozen) continue;
        const bool grad = mode != Mode::kNoGrad;
        const bool training = mode == Mode::kTrainingDropout;
        auto run = [&](bool fused, std::vector<Tensor>* grads) {
          Rng init(21);
          nn::TransformerEncoderLayer layer(kModel, kHeads, kHidden, kDropout,
                                            &init);
          if (frozen) {
            for (ag::Var& param : layer.Parameters()) {
              param.set_requires_grad(false);
            }
          }
          Rng rng(22);
          const nn::ForwardContext ctx{training, &rng};
          ag::Var x(x0.Clone(), grad);
          std::optional<ag::NoGradGuard> no_grad;
          if (!grad) no_grad.emplace();
          const ag::Var out =
              fused ? layer.Forward(x, ctx)
                    : ComposedLayer(layer, x, kHeads, kDropout, training,
                                    &rng);
          if (grad) {
            ag::SumAll(ag::Mul(out, ag::Constant(w))).Backward();
            grads->push_back(x.grad());
            for (const auto& [name, param] : layer.NamedParameters()) {
              grads->push_back(param.grad());
            }
          }
          return out.value().Contiguous();
        };
        runtime::SetNumThreads(1);
        std::vector<Tensor> want_grads;
        const Tensor want = run(false, &want_grads);
        for (int threads : kThreadCounts) {
          runtime::SetNumThreads(threads);
          std::vector<Tensor> got_grads;
          const Tensor got = run(true, &got_grads);
          SCOPED_TRACE(std::string(ModeName(mode)) +
                       (frozen ? " frozen" : "") + " S=" + std::to_string(s) +
                       " threads=" + std::to_string(threads));
          EXPECT_TRUE(SameBits(got, want)) << "output";
          ASSERT_EQ(got_grads.size(), want_grads.size());
          for (size_t i = 0; i < got_grads.size(); ++i) {
            EXPECT_TRUE(SameBits(got_grads[i], want_grads[i]))
                << (i == 0 ? std::string("input")
                           : "parameter " + std::to_string(i - 1));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tsfm
