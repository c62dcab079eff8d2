// Bit-exact determinism across thread counts.
//
// The runtime's contract is that chunk boundaries depend only on
// (begin, end, grain) and per-chunk partials are reduced in chunk-index
// order, so every parallelized op must produce bit-identical floats for
// TSFM_NUM_THREADS=1, 2, and 8. These tests run the hot ops at each
// thread count and compare raw buffers with memcmp — any reordering of
// floating-point accumulation fails loudly.

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/rng.h"
#include "core/adapter.h"
#include "core/pca_adapter.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "models/head.h"
#include "models/moment.h"
#include "models/vit.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = runtime::NumThreads(); }
  void TearDown() override { runtime::SetNumThreads(saved_); }

  // Runs `compute` once per thread count and checks the raw output bytes
  // never change.
  void ExpectBitIdentical(const std::function<Tensor()>& compute,
                          const char* what) {
    runtime::SetNumThreads(kThreadCounts[0]);
    Tensor reference = compute();
    for (size_t i = 1; i < std::size(kThreadCounts); ++i) {
      runtime::SetNumThreads(kThreadCounts[i]);
      Tensor got = compute();
      ASSERT_EQ(got.shape(), reference.shape()) << what;
      EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                            sizeof(float) * static_cast<size_t>(got.numel())),
                0)
          << what << " differs at " << kThreadCounts[i] << " threads";
    }
  }

  int saved_ = 1;
};

TEST_F(DeterminismTest, MatMul) {
  Rng rng(7);
  Tensor a = Tensor::RandN({130, 70}, &rng);
  Tensor b = Tensor::RandN({70, 90}, &rng);
  ExpectBitIdentical([&] { return MatMul(a, b); }, "MatMul 2-D");
}

TEST_F(DeterminismTest, BatchedBroadcastMatMul) {
  Rng rng(8);
  Tensor a = Tensor::RandN({4, 33, 17}, &rng);
  Tensor b = Tensor::RandN({17, 29}, &rng);  // broadcast over batch
  ExpectBitIdentical([&] { return MatMul(a, b); }, "MatMul batched");
}

TEST_F(DeterminismTest, Elementwise) {
  Rng rng(9);
  Tensor a = Tensor::RandN({100000}, &rng);
  Tensor b = Tensor::RandN({100000}, &rng);
  ExpectBitIdentical([&] { return Mul(Add(a, b), a); }, "elementwise");
}

TEST_F(DeterminismTest, Reductions) {
  Rng rng(10);
  Tensor a = Tensor::RandN({64, 1000}, &rng);
  ExpectBitIdentical(
      [&] { return Tensor(Shape{1}, {SumAll(a)}); }, "SumAll");
  ExpectBitIdentical([&] { return Sum(a, 0) ; }, "Sum axis 0");
  ExpectBitIdentical([&] { return Sum(a, 1); }, "Sum axis 1");
  ExpectBitIdentical([&] { return Softmax(a); }, "Softmax");
}

TEST_F(DeterminismTest, PcaFitAndTransform) {
  Rng rng(11);
  Tensor x = Tensor::RandN({24, 50, 6}, &rng);
  std::vector<int64_t> y(24, 0);
  auto fit_transform = [&] {
    core::AdapterOptions options;
    options.out_channels = 3;
    core::PcaAdapter pca(options);
    EXPECT_TRUE(pca.Fit(x, y).ok());
    auto out = pca.Transform(x);
    EXPECT_TRUE(out.ok());
    return out.value();
  };
  ExpectBitIdentical(fit_transform, "PCA fit+transform");
}

// The whole eval forward of both bench-scale encoders: patch embed, the
// attention kernel, layer norm, GELU MLP and the two
// mean-pools must compose into a thread-count-independent result. Under
// no-grad the series are encoded in fixed chunks; with grad on they go
// through every op at once. Both paths must give the same bits, for series
// counts below, at and off a chunk multiple.
TEST_F(DeterminismTest, EncoderForward) {
  Rng rng(13);
  models::MomentModel moment(models::MomentSmallConfig(), &rng);
  models::VitModel vit(models::VitSmallConfig(), &rng);
  const models::FoundationModel* const encoders[] = {&moment, &vit};
  const nn::ForwardContext eval{/*training=*/false, /*rng=*/nullptr};
  // (B, D) pairs: B*D = 8, 32, 37, 135, 200.
  const int64_t shapes[][2] = {{1, 8}, {4, 8}, {1, 37}, {5, 27}, {1, 200}};
  for (const auto& [b, d] : shapes) {
    const Tensor x = Tensor::RandN({b, 64, d}, &rng);
    for (const models::FoundationModel* model : encoders) {
      const std::string what = model->config().name + " B*D=" +
                               std::to_string(b * d);
      runtime::SetNumThreads(1);
      const Tensor unchunked =
          model->EncodeChannels(ag::Constant(x), eval).value();
      for (int threads : kThreadCounts) {
        runtime::SetNumThreads(threads);
        Tensor chunked;
        {
          ag::NoGradGuard guard;
          chunked = model->EncodeChannels(ag::Constant(x), eval).value();
        }
        ASSERT_EQ(chunked.shape(), unchunked.shape()) << what;
        EXPECT_EQ(std::memcmp(chunked.data(), unchunked.data(),
                              sizeof(float) *
                                  static_cast<size_t>(chunked.numel())),
                  0)
            << what << " no-grad differs from grad mode at " << threads
            << " threads";
      }
    }
  }
}

// A short lcomb joint fit: every backward closure the encoder, adapter and
// head use, gradient clipping and both AdamW groups must train the lcomb
// weight and the head to the same bits at any thread count. The encoder is
// frozen in this regime, so one model serves every run.
TEST_F(DeterminismTest, JointStep) {
  data::UeaDatasetSpec spec{"joint_toy", "jt", 16, 8, 6, 64, 2, 2};
  const data::DatasetPair pair =
      data::GenerateUeaLike(spec, 15, data::GeneratorCaps{});
  Rng rng(16);
  models::MomentModel moment(models::MomentSmallConfig(), &rng);
  core::AdapterOptions adapter_options;
  adapter_options.out_channels = 3;
  finetune::FineTuneOptions options;
  options.joint_epochs = 1;
  options.batch_size = 8;
  ExpectBitIdentical(
      [&] {
        auto adapter =
            core::CreateAdapter(core::AdapterKind::kLcomb, adapter_options);
        Rng head_rng(17);
        models::ClassificationHead head(moment.embedding_dim(),
                                        spec.classes, &head_rng);
        EXPECT_TRUE(finetune::FineTuneWithHead(&moment, adapter.get(), &head,
                                               pair.train, pair.test, options)
                        .ok());
        std::vector<Tensor> params;
        for (const auto& p : adapter->TrainableParameters()) {
          params.push_back(p.value().Reshape({-1}));
        }
        for (const auto& p : head.Parameters()) {
          params.push_back(p.value().Reshape({-1}));
        }
        return Concat(params, 0);
      },
      "lcomb joint fit (lcomb weight, head)");
}

// A short embed-once fit: the PCA fit, both splits' embed passes and the
// head epochs on their embeddings must give the same head bits, accuracies
// and final loss at any thread count.
TEST_F(DeterminismTest, EmbedOnceFit) {
  data::UeaDatasetSpec spec{"embed_toy", "et", 16, 8, 6, 64, 2, 2};
  const data::DatasetPair pair =
      data::GenerateUeaLike(spec, 18, data::GeneratorCaps{});
  Rng rng(19);
  models::MomentModel moment(models::MomentSmallConfig(), &rng);
  core::AdapterOptions adapter_options;
  adapter_options.out_channels = 3;
  finetune::FineTuneOptions options;
  options.head_epochs = 4;
  options.batch_size = 8;
  std::vector<finetune::FineTuneResult> results;
  ExpectBitIdentical(
      [&] {
        auto adapter =
            core::CreateAdapter(core::AdapterKind::kPca, adapter_options);
        Rng head_rng(20);
        models::ClassificationHead head(moment.embedding_dim(),
                                        spec.classes, &head_rng);
        auto result = finetune::FineTuneWithHead(
            &moment, adapter.get(), &head, pair.train, pair.test, options);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (result.ok()) results.push_back(*result);
        std::vector<Tensor> params;
        for (const auto& p : head.Parameters()) {
          params.push_back(p.value().Reshape({-1}));
        }
        return Concat(params, 0);
      },
      "embed-once PCA fit (head)");
  ASSERT_EQ(results.size(), std::size(kThreadCounts));
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].train_accuracy, results[0].train_accuracy);
    EXPECT_EQ(results[i].test_accuracy, results[0].test_accuracy);
    EXPECT_EQ(results[i].final_loss, results[0].final_loss)
        << "at " << kThreadCounts[i] << " threads";
  }
}

// Regression test for the removed `a == 0` skip in MatMul's inner loop:
// IEEE 754 requires 0 * NaN == NaN, so a NaN in B must poison every
// output that multiplies it — even against a zero in A.
TEST_F(DeterminismTest, MatMulPropagatesNanThroughZero) {
  Tensor a(Shape{1, 2}, {0.0f, 0.0f});
  Tensor b(Shape{2, 1}, {std::nanf(""), 1.0f});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c[0]));

  // Same through the blocked kernel path (full 6x tile of rows).
  Tensor big_a = Tensor::Zeros(Shape{12, 8});
  Rng rng(12);
  Tensor big_b = Tensor::RandN({8, 40}, &rng);
  big_b.mutable_data()[0] = std::nanf("");
  Tensor big_c = MatMul(big_a, big_b);
  // The NaN sits at B(0, 0), which feeds C(i, 0) for every row i.
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(std::isnan(big_c.at({i, 0}))) << "row " << i;
  }
}

// The vectorized transcendental kernels are bit-identical to their scalar
// reference at any chunk split, so ParallelFor boundaries cannot change
// output bits.
TEST_F(DeterminismTest, TranscendentalsAndSoftmax) {
  Rng rng(40);
  Tensor a = Tensor::RandN({150, 90}, &rng, 3.0f);
  ExpectBitIdentical([&] { return Exp(a); }, "Exp");
  ExpectBitIdentical([&] { return Tanh(a); }, "Tanh");
  ExpectBitIdentical([&] { return Gelu(a); }, "Gelu");
  ExpectBitIdentical([&] { return Sigmoid(a); }, "Sigmoid");
  ExpectBitIdentical([&] { return Softmax(a); }, "Softmax");
  ExpectBitIdentical([&] { return LogSoftmax(a); }, "LogSoftmax");
}

}  // namespace
}  // namespace tsfm
