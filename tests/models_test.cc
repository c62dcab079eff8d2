#include <cstdio>

#include <gtest/gtest.h>

#include "models/moment.h"
#include "models/pretrained.h"
#include "models/vit.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using models::FoundationModelConfig;
using models::MomentModel;
using models::MomentTestConfig;
using models::PretrainOptions;
using models::VitModel;
using models::VitTestConfig;

nn::ForwardContext EvalCtx() { return nn::ForwardContext{false, nullptr}; }

PretrainOptions TinyPretrain() {
  PretrainOptions o;
  o.corpus_size = 32;
  o.series_length = 32;
  o.batch_size = 16;
  o.epochs = 2;
  return o;
}

TEST(MomentTest, PatchCountAndTokenShapes) {
  Rng rng(1);
  MomentModel model(MomentTestConfig(), &rng);
  EXPECT_EQ(model.NumPatches(32), 4);  // patch_len 8
  EXPECT_EQ(model.NumPatches(35), 4);  // tail dropped
  EXPECT_EQ(model.NumPatches(5), 1);   // padded up
  Tensor series = Tensor::RandN({3, 32}, &rng);
  ag::Var tokens = model.EncodeSeries(ag::Constant(series), EvalCtx());
  EXPECT_EQ(tokens.shape(), (Shape{3, 4, 16}));
}

TEST(MomentTest, ShortSeriesPadded) {
  Rng rng(2);
  MomentModel model(MomentTestConfig(), &rng);
  Tensor series = Tensor::RandN({2, 5}, &rng);  // shorter than one patch
  ag::Var tokens = model.EncodeSeries(ag::Constant(series), EvalCtx());
  EXPECT_EQ(tokens.shape(), (Shape{2, 1, 16}));
}

TEST(MomentTest, EncodeChannelsPoolsToEmbedding) {
  Rng rng(3);
  MomentModel model(MomentTestConfig(), &rng);
  Tensor x = Tensor::RandN({4, 32, 3}, &rng);  // (B, T, D)
  ag::Var emb = model.EncodeChannels(ag::Constant(x), EvalCtx());
  EXPECT_EQ(emb.shape(), (Shape{4, 16}));
}

TEST(MomentTest, ChannelOrderInvarianceOfPooledEmbedding) {
  // Mean pooling over channels makes the embedding permutation-invariant in
  // the channel axis — each channel is encoded independently.
  Rng rng(4);
  MomentModel model(MomentTestConfig(), &rng);
  Tensor x = Tensor::RandN({2, 16, 3}, &rng);
  Tensor x_swapped(Shape{2, 16, 3});
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t t = 0; t < 16; ++t) {
      x_swapped.at({b, t, 0}) = x.at({b, t, 2});
      x_swapped.at({b, t, 1}) = x.at({b, t, 1});
      x_swapped.at({b, t, 2}) = x.at({b, t, 0});
    }
  }
  Tensor e1 = model.EncodeChannels(ag::Constant(x), EvalCtx()).value();
  Tensor e2 = model.EncodeChannels(ag::Constant(x_swapped), EvalCtx()).value();
  EXPECT_LT(MaxAbsDiff(e1, e2), 1e-4f);
}

TEST(MomentTest, GradFlowsToInput) {
  Rng rng(5);
  MomentModel model(MomentTestConfig(), &rng);
  ag::Var x(Tensor::RandN({1, 16, 2}, &rng), true);
  ag::Var emb = model.EncodeChannels(x, EvalCtx());
  ag::SumAll(ag::Square(emb)).Backward();
  EXPECT_GT(Norm(x.grad()), 0.0f);
}

// A no-grad forward of a wide request fans out to the pool once: the
// chunks of series share one ParallelFor, and every op inside a chunk runs
// inline on its thread. Fan-outs are ParallelFor calls that did not run
// inline.
TEST(MomentTest, NoGradForwardFansOutOnce) {
  Rng rng(11);
  MomentModel model(models::MomentSmallConfig(), &rng);
  const Tensor x = Tensor::RandN({1, 64, 200}, &rng);
  const int saved = runtime::NumThreads();
  runtime::SetNumThreads(2);
  auto& registry = obs::Registry::Instance();
  const obs::Counter* calls =
      registry.GetCounter("runtime.parallel_for.calls");
  const obs::Counter* inline_calls =
      registry.GetCounter("runtime.parallel_for.inline");
  const uint64_t calls0 = calls->value();
  const uint64_t inline0 = inline_calls->value();
  {
    ag::NoGradGuard guard;
    model.EncodeChannels(ag::Constant(x), EvalCtx());
  }
  const uint64_t fanned = (calls->value() - calls0) -
                          (inline_calls->value() - inline0);
  runtime::SetNumThreads(saved);
  EXPECT_EQ(fanned, 1u);
}

TEST(MomentTest, PretrainReducesReconstructionLoss) {
  Rng rng(6);
  FoundationModelConfig config = MomentTestConfig();
  MomentModel model(config, &rng);
  PretrainOptions o = TinyPretrain();
  o.epochs = 1;
  auto first = model.Pretrain(o);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  o.epochs = 6;
  auto later = model.Pretrain(o);
  ASSERT_TRUE(later.ok());
  EXPECT_LT(*later, *first);
}

TEST(MomentTest, PretrainRejectsBadMaskRatio) {
  Rng rng(7);
  MomentModel model(MomentTestConfig(), &rng);
  PretrainOptions o = TinyPretrain();
  o.mask_ratio = 0.0f;
  EXPECT_FALSE(model.Pretrain(o).ok());
  o.mask_ratio = 1.0f;
  EXPECT_FALSE(model.Pretrain(o).ok());
}

TEST(MomentDeathTest, RejectsOverlappingPatches) {
  Rng rng(8);
  FoundationModelConfig c = MomentTestConfig();
  c.patch_stride = 4;
  EXPECT_DEATH(MomentModel(c, &rng), "non-overlapping");
}

TEST(VitTest, OverlappingPatchCount) {
  Rng rng(9);
  VitModel model(VitTestConfig(), &rng);
  // patch_len 8, stride 4: (32 - 8) / 4 + 1 = 7.
  EXPECT_EQ(model.NumPatches(32), 7);
  EXPECT_EQ(model.NumPatches(8), 1);
  EXPECT_EQ(model.NumPatches(4), 1);  // padded
  Tensor series = Tensor::RandN({2, 32}, &rng);
  ag::Var tokens = model.EncodeSeries(ag::Constant(series), EvalCtx());
  EXPECT_EQ(tokens.shape(), (Shape{2, 7, 16}));
}

TEST(VitTest, EncodeChannelsShape) {
  Rng rng(10);
  VitModel model(VitTestConfig(), &rng);
  Tensor x = Tensor::RandN({3, 24, 4}, &rng);
  ag::Var emb = model.EncodeChannels(ag::Constant(x), EvalCtx());
  EXPECT_EQ(emb.shape(), (Shape{3, 16}));
}

TEST(VitTest, PretrainReducesContrastiveLoss) {
  Rng rng(11);
  VitModel model(VitTestConfig(), &rng);
  PretrainOptions o = TinyPretrain();
  o.epochs = 1;
  auto first = model.Pretrain(o);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  o.epochs = 6;
  auto later = model.Pretrain(o);
  ASSERT_TRUE(later.ok());
  EXPECT_LT(*later, *first);
}

TEST(VitTest, PretrainRejectsBadTemperature) {
  Rng rng(12);
  VitModel model(VitTestConfig(), &rng);
  PretrainOptions o = TinyPretrain();
  o.temperature = 0.0f;
  EXPECT_FALSE(model.Pretrain(o).ok());
}

TEST(PretrainedCacheTest, SecondLoadSkipsPretraining) {
  const std::string path = ::testing::TempDir() + "/moment_cache.ckpt";
  std::remove(path.c_str());
  PretrainOptions o = TinyPretrain();
  auto first = models::LoadOrPretrain(models::ModelKind::kMoment,
                                      MomentTestConfig(), o, path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = models::LoadOrPretrain(models::ModelKind::kMoment,
                                       MomentTestConfig(), o, path);
  ASSERT_TRUE(second.ok());
  // Same weights -> same embeddings.
  Rng rng(13);
  Tensor x = Tensor::RandN({2, 32, 2}, &rng);
  Tensor e1 = (*first)->EncodeChannels(ag::Constant(x), EvalCtx()).value();
  Tensor e2 = (*second)->EncodeChannels(ag::Constant(x), EvalCtx()).value();
  EXPECT_TRUE(AllClose(e1, e2));
  std::remove(path.c_str());
}

TEST(PretrainedCacheTest, EmptyPathSkipsCaching) {
  PretrainOptions o = TinyPretrain();
  o.epochs = 1;
  auto model = models::LoadOrPretrain(models::ModelKind::kVit, VitTestConfig(),
                                      o, "");
  ASSERT_TRUE(model.ok());
  EXPECT_GT((*model)->NumParameters(), 0);
}

TEST(ModelKindTest, Names) {
  EXPECT_STREQ(models::ModelKindName(models::ModelKind::kMoment), "MOMENT");
  EXPECT_STREQ(models::ModelKindName(models::ModelKind::kVit), "ViT");
}

TEST(ConfigTest, SmallConfigsAreSane) {
  auto m = models::MomentSmallConfig();
  EXPECT_EQ(m.patch_len, m.patch_stride);
  EXPECT_EQ(m.d_model % m.num_heads, 0);
  auto v = models::VitSmallConfig();
  EXPECT_LT(v.patch_stride, v.patch_len);
  EXPECT_EQ(v.d_model % v.num_heads, 0);
}

}  // namespace
}  // namespace tsfm
