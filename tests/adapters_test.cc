#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/adapter.h"
#include "core/io_util.h"
#include "core/lcomb_adapter.h"
#include "core/pca_adapter.h"
#include "core/static_adapters.h"
#include "data/uea_like.h"
#include "io/artifact.h"
#include "linalg/linalg.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using core::AdapterKind;
using core::AdapterOptions;

// Correlated multivariate data: D channels mixed from L latent signals.
Tensor CorrelatedData(int64_t n, int64_t t, int64_t d, int64_t latent,
                      uint64_t seed) {
  Rng rng(seed);
  Tensor mixing = Tensor::RandN({latent, d}, &rng);
  Tensor z = Tensor::RandN({n * t, latent}, &rng);
  Tensor x = MatMul(z, mixing);
  Tensor noise = Tensor::RandN({n * t, d}, &rng, 0.05f);
  return Add(x, noise).Reshape({n, t, d});
}

std::vector<int64_t> DummyLabels(int64_t n) {
  std::vector<int64_t> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) y[static_cast<size_t>(i)] = i % 2;
  return y;
}

// ------------------------------- Factory -----------------------------------

TEST(FactoryTest, CreatesEveryKind) {
  AdapterOptions options;
  for (AdapterKind kind :
       {AdapterKind::kNone, AdapterKind::kPca, AdapterKind::kSvd,
        AdapterKind::kRandProj, AdapterKind::kVar, AdapterKind::kLcomb,
        AdapterKind::kLcombTopK}) {
    auto adapter = core::CreateAdapter(kind, options);
    ASSERT_NE(adapter, nullptr) << core::AdapterKindName(kind);
    EXPECT_FALSE(adapter->fitted());
  }
  EXPECT_EQ(core::AllAdapterKinds().size(), 6u);
}

TEST(FactoryTest, KindNames) {
  EXPECT_STREQ(core::AdapterKindName(AdapterKind::kPca), "PCA");
  EXPECT_STREQ(core::AdapterKindName(AdapterKind::kLcombTopK), "lcomb_top_k");
}

TEST(AdapterTest, TransformBeforeFitFails) {
  AdapterOptions options;
  for (AdapterKind kind :
       {AdapterKind::kPca, AdapterKind::kSvd, AdapterKind::kRandProj,
        AdapterKind::kVar, AdapterKind::kNone}) {
    auto adapter = core::CreateAdapter(kind, options);
    EXPECT_FALSE(adapter->Transform(Tensor(Shape{2, 4, 8})).ok())
        << core::AdapterKindName(kind);
  }
}

// --------------------------------- PCA -------------------------------------

TEST(PcaTest, OutputShapeAndName) {
  AdapterOptions options;
  options.out_channels = 3;
  core::PcaAdapter pca(options);
  EXPECT_EQ(pca.name(), "PCA");
  Tensor x = CorrelatedData(6, 10, 8, 4, 1);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(6)).ok());
  auto out = pca.Transform(x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{6, 10, 3}));
}

TEST(PcaTest, ComponentsOrthonormal) {
  AdapterOptions options;
  options.out_channels = 4;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(8, 12, 10, 6, 2);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(8)).ok());
  const Tensor& w = pca.components();  // (10, 4)
  Tensor wtw = MatMul(TransposeLast2(w), w);
  EXPECT_LT(MaxAbsDiff(wtw, Tensor::Eye(4)), 1e-3f);
}

TEST(PcaTest, CapturesVarianceOfLowRankData) {
  // Data has intrinsic rank 3: 3 components must capture almost everything.
  AdapterOptions options;
  options.out_channels = 3;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(10, 20, 12, 3, 3);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(10)).ok());
  EXPECT_GT(pca.explained_variance_ratio(), 0.95);
}

TEST(PcaTest, ProjectedVarianceDescending) {
  AdapterOptions options;
  options.out_channels = 4;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(10, 16, 9, 6, 4);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(10)).ok());
  Tensor out = *pca.Transform(x);
  Tensor var = Variance(out.Reshape({-1, 4}), 0);
  for (int64_t j = 1; j < 4; ++j) {
    EXPECT_GE(var[j - 1], var[j] - 1e-4f);
  }
}

TEST(PcaTest, ScaledVariantNormalizesColumns) {
  AdapterOptions options;
  options.out_channels = 2;
  options.pca_scale = true;
  core::PcaAdapter pca(options);
  EXPECT_EQ(pca.name(), "ScaledPCA");
  // One channel has huge scale; scaled PCA should not let it dominate.
  Rng rng(5);
  Tensor x = CorrelatedData(8, 10, 6, 3, 5);
  for (int64_t i = 0; i < x.numel(); i += 6) x.mutable_data()[i] *= 1000.0f;
  ASSERT_TRUE(pca.Fit(x, DummyLabels(8)).ok());
  // First component must not be (almost) equal to e_0.
  EXPECT_LT(std::fabs(pca.components().at({0, 0})), 0.99f);
}

TEST(PcaTest, PatchVariantCoarsensTime) {
  AdapterOptions options;
  options.out_channels = 3;
  options.pca_patch_window = 4;
  core::PcaAdapter pca(options);
  EXPECT_EQ(pca.name(), "PatchPCA_4");
  Tensor x = CorrelatedData(5, 16, 6, 3, 6);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(5)).ok());
  auto out = pca.Transform(x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{5, 4, 3}));  // T/pws = 16/4
}

TEST(PcaTest, PatchWindowLargerThanSeriesFails) {
  AdapterOptions options;
  options.pca_patch_window = 64;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(4, 16, 6, 3, 7);
  EXPECT_FALSE(pca.Fit(x, DummyLabels(4)).ok());
}

TEST(PcaTest, RejectsBadOutChannels) {
  AdapterOptions options;
  options.out_channels = 20;  // > D
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(4, 8, 6, 3, 8);
  EXPECT_FALSE(pca.Fit(x, DummyLabels(4)).ok());
}

TEST(PcaTest, TransformRejectsChannelMismatch) {
  AdapterOptions options;
  options.out_channels = 2;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(4, 8, 6, 3, 9);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(4)).ok());
  EXPECT_FALSE(pca.Transform(Tensor(Shape{4, 8, 7})).ok());
}

TEST(PcaTest, LinearityAcrossTimeSteps) {
  // Standard PCA applies the same W at every time step: transforming a
  // time-shuffled copy must equal time-shuffling the transform.
  AdapterOptions options;
  options.out_channels = 3;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(3, 6, 8, 4, 10);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(3)).ok());
  Tensor y = *pca.Transform(x);
  // Reverse time.
  Tensor x_rev(Shape{3, 6, 8});
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t t = 0; t < 6; ++t) {
      for (int64_t d = 0; d < 8; ++d) {
        x_rev.at({b, t, d}) = x.at({b, 5 - t, d});
      }
    }
  }
  Tensor y_rev = *pca.Transform(x_rev);
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t t = 0; t < 6; ++t) {
      for (int64_t d = 0; d < 3; ++d) {
        EXPECT_NEAR(y_rev.at({b, t, d}), y.at({b, 5 - t, d}), 1e-4f);
      }
    }
  }
}

// --------------------------------- SVD -------------------------------------

TEST(SvdTest, ShapeAndSingularValuesDescending) {
  AdapterOptions options;
  options.out_channels = 3;
  core::SvdAdapter svd(options);
  Tensor x = CorrelatedData(6, 10, 8, 5, 11);
  ASSERT_TRUE(svd.Fit(x, DummyLabels(6)).ok());
  auto out = svd.Transform(x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{6, 10, 3}));
  for (int64_t j = 1; j < 3; ++j) {
    EXPECT_GE(svd.singular_values()[j - 1], svd.singular_values()[j] - 1e-3f);
  }
}

TEST(SvdTest, DiffersFromPcaOnUncenteredData) {
  // With a large common offset, uncentered SVD's first direction tracks the
  // mean while PCA ignores it.
  AdapterOptions options;
  options.out_channels = 1;
  core::SvdAdapter svd(options);
  core::PcaAdapter pca(options);
  Tensor x = AddScalar(CorrelatedData(6, 10, 5, 3, 12), 50.0f);
  ASSERT_TRUE(svd.Fit(x, DummyLabels(6)).ok());
  ASSERT_TRUE(pca.Fit(x, DummyLabels(6)).ok());
  Tensor svd_out = *svd.Transform(x);
  Tensor pca_out = *pca.Transform(x);
  // SVD projection magnitude reflects the offset; PCA's does not.
  EXPECT_GT(std::fabs(MeanAll(svd_out)), 10.0f);
  EXPECT_LT(std::fabs(MeanAll(pca_out)), 5.0f);
}

// ------------------------------ Rand_Proj ----------------------------------

TEST(RandProjTest, ShapeAndDeterminismPerSeed) {
  AdapterOptions options;
  options.out_channels = 4;
  options.seed = 77;
  core::RandProjAdapter a(options), b(options);
  Tensor x = CorrelatedData(5, 8, 10, 4, 13);
  ASSERT_TRUE(a.Fit(x, DummyLabels(5)).ok());
  ASSERT_TRUE(b.Fit(x, DummyLabels(5)).ok());
  EXPECT_TRUE(AllClose(*a.Transform(x), *b.Transform(x)));
  AdapterOptions other = options;
  other.seed = 78;
  core::RandProjAdapter c(other);
  ASSERT_TRUE(c.Fit(x, DummyLabels(5)).ok());
  EXPECT_GT(MaxAbsDiff(*a.Transform(x), *c.Transform(x)), 1e-3f);
}

TEST(RandProjTest, ApproximatelyPreservesScale) {
  // With variance 1/D' entries, E||Wx||^2 = ||x||^2.
  AdapterOptions options;
  options.out_channels = 64;
  core::RandProjAdapter proj(options);
  Rng rng(14);
  Tensor x = Tensor::RandN({20, 4, 128}, &rng);
  ASSERT_TRUE(proj.Fit(x, DummyLabels(20)).ok());
  Tensor y = *proj.Transform(x);
  const float in_norm = Norm(x);
  const float out_norm = Norm(y);
  EXPECT_NEAR(out_norm / in_norm, 1.0f, 0.2f);
}

// --------------------------------- VAR -------------------------------------

TEST(VarTest, SelectsHighestVarianceChannels) {
  AdapterOptions options;
  options.out_channels = 2;
  core::VarAdapter var(options);
  Rng rng(15);
  Tensor x(Shape{10, 6, 4});
  for (int64_t i = 0; i < 10 * 6; ++i) {
    float* row = x.mutable_data() + i * 4;
    row[0] = static_cast<float>(rng.Normal(0.0, 0.1));  // low var
    row[1] = static_cast<float>(rng.Normal(0.0, 3.0));  // highest
    row[2] = static_cast<float>(rng.Normal(0.0, 1.0));  // second
    row[3] = static_cast<float>(rng.Normal(0.0, 0.3));
  }
  ASSERT_TRUE(var.Fit(x, DummyLabels(10)).ok());
  EXPECT_EQ(var.selected_channels()[0], 1);
  EXPECT_EQ(var.selected_channels()[1], 2);
  Tensor out = *var.Transform(x);
  EXPECT_EQ(out.shape(), (Shape{10, 6, 2}));
  // Output channel 0 is exactly input channel 1.
  EXPECT_EQ(out.at({3, 2, 0}), x.at({3, 2, 1}));
}

TEST(VarTest, TransformIsExactSubsetOfInput) {
  AdapterOptions options;
  options.out_channels = 3;
  core::VarAdapter var(options);
  Tensor x = CorrelatedData(4, 5, 8, 4, 16);
  ASSERT_TRUE(var.Fit(x, DummyLabels(4)).ok());
  Tensor out = *var.Transform(x);
  for (int64_t j = 0; j < 3; ++j) {
    const int64_t src = var.selected_channels()[static_cast<size_t>(j)];
    for (int64_t b = 0; b < 4; ++b) {
      for (int64_t t = 0; t < 5; ++t) {
        EXPECT_EQ(out.at({b, t, j}), x.at({b, t, src}));
      }
    }
  }
}

// ------------------------------ Identity -----------------------------------

TEST(IdentityTest, PassThrough) {
  core::IdentityAdapter id;
  Tensor x = CorrelatedData(3, 4, 5, 3, 17);
  ASSERT_TRUE(id.Fit(x, DummyLabels(3)).ok());
  EXPECT_EQ(id.output_channels(), 5);
  auto out = id.Transform(x);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(AllClose(*out, x));
  EXPECT_FALSE(id.Transform(Tensor(Shape{3, 4, 6})).ok());
}

// -------------------------------- lcomb ------------------------------------

TEST(LcombTest, InitAndShapes) {
  AdapterOptions options;
  options.out_channels = 3;
  core::LinearCombinerAdapter lcomb(options, /*use_top_k=*/false);
  EXPECT_EQ(lcomb.name(), "lcomb");
  EXPECT_TRUE(lcomb.IsLearnable());
  Tensor x = CorrelatedData(4, 6, 8, 4, 18);
  ASSERT_TRUE(lcomb.Fit(x, DummyLabels(4)).ok());
  EXPECT_EQ(lcomb.weight().shape(), (Shape{3, 8}));
  EXPECT_EQ(lcomb.TrainableParameters().size(), 1u);
  auto out = lcomb.Transform(x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{4, 6, 3}));
}

TEST(LcombTest, GradientReachesWeight) {
  AdapterOptions options;
  options.out_channels = 2;
  core::LinearCombinerAdapter lcomb(options, false);
  Tensor x = CorrelatedData(3, 5, 6, 3, 19);
  ASSERT_TRUE(lcomb.Fit(x, DummyLabels(3)).ok());
  ag::Var out = lcomb.TransformVar(ag::Constant(x));
  ag::SumAll(ag::Square(out)).Backward();
  EXPECT_GT(Norm(lcomb.weight().grad()), 0.0f);
}

TEST(LcombTest, TransformMatchesManualMatMul) {
  AdapterOptions options;
  options.out_channels = 2;
  core::LinearCombinerAdapter lcomb(options, false);
  Tensor x = CorrelatedData(2, 3, 4, 2, 20);
  ASSERT_TRUE(lcomb.Fit(x, DummyLabels(2)).ok());
  const Tensor& w = lcomb.weight().value();  // (2, 4)
  Tensor expected =
      MatMul(x.Reshape({6, 4}), TransposeLast2(w)).Reshape({2, 3, 2});
  EXPECT_LT(MaxAbsDiff(*lcomb.Transform(x), expected), 1e-5f);
}

TEST(LcombTopKTest, MaskKeepsExactlyKPerRow) {
  AdapterOptions options;
  options.out_channels = 3;
  options.top_k = 4;
  core::LinearCombinerAdapter lcomb(options, /*use_top_k=*/true);
  EXPECT_EQ(lcomb.name(), "lcomb_top_k");
  Tensor x = CorrelatedData(3, 5, 10, 4, 21);
  ASSERT_TRUE(lcomb.Fit(x, DummyLabels(3)).ok());
  // Effective weight per output channel uses at most k input channels:
  // zeroing any non-top-k input channel must not change the output.
  Tensor base = *lcomb.Transform(x);
  // Find which channels matter for output row 0 by perturbing inputs.
  int used = 0;
  for (int64_t ch = 0; ch < 10; ++ch) {
    Tensor x2 = x.Clone();
    for (int64_t b = 0; b < 3; ++b) {
      for (int64_t t = 0; t < 5; ++t) x2.at({b, t, ch}) += 10.0f;
    }
    Tensor out2 = *lcomb.Transform(x2);
    // Does output channel 0 change?
    float diff = 0;
    for (int64_t b = 0; b < 3; ++b) {
      for (int64_t t = 0; t < 5; ++t) {
        diff = std::max(diff, std::fabs(out2.at({b, t, 0}) - base.at({b, t, 0})));
      }
    }
    if (diff > 1e-4f) ++used;
  }
  EXPECT_LE(used, 4);
  EXPECT_GT(used, 0);
}

TEST(LcombTopKTest, RowsAreRescaled) {
  // After the top-k rule, the effective |row| sums are ~1 (sum of kept
  // magnitudes divided by itself).
  AdapterOptions options;
  options.out_channels = 2;
  options.top_k = 3;
  core::LinearCombinerAdapter lcomb(options, true);
  Tensor x = CorrelatedData(2, 4, 8, 4, 22);
  ASSERT_TRUE(lcomb.Fit(x, DummyLabels(2)).ok());
  // Probe the effective weight: transform unit impulses.
  Tensor impulse = Tensor::Zeros({1, 1, 8});
  double row0_abs_sum = 0.0;
  for (int64_t ch = 0; ch < 8; ++ch) {
    impulse.Fill(0.0f);
    impulse.at({0, 0, ch}) = 1.0f;
    Tensor out = *lcomb.Transform(impulse);
    row0_abs_sum += std::fabs(out.at({0, 0, 0}));
  }
  EXPECT_NEAR(row0_abs_sum, 1.0, 0.05);
}

TEST(LcombTest, RejectsBadConfig) {
  AdapterOptions options;
  options.out_channels = 20;
  core::LinearCombinerAdapter lcomb(options, false);
  Tensor x = CorrelatedData(3, 4, 6, 3, 23);
  EXPECT_FALSE(lcomb.Fit(x, DummyLabels(3)).ok());
  AdapterOptions bad_k;
  bad_k.out_channels = 2;
  bad_k.top_k = 100;
  core::LinearCombinerAdapter topk(bad_k, true);
  EXPECT_FALSE(topk.Fit(x, DummyLabels(3)).ok());
}

// ---------------------------- Serialization --------------------------------

class AdapterSerializationSuite : public ::testing::TestWithParam<AdapterKind> {
};

TEST_P(AdapterSerializationSuite, SaveLoadRoundTripPreservesTransform) {
  AdapterOptions options;
  options.out_channels = 4;
  options.top_k = 3;
  auto adapter = core::CreateAdapter(GetParam(), options);
  Tensor x = CorrelatedData(5, 8, 9, 5, 90);
  ASSERT_TRUE(adapter->Fit(x, DummyLabels(5)).ok());
  const std::string path = ::testing::TempDir() + "/adapter_" +
                           core::AdapterKindName(GetParam()) + ".bin";
  ASSERT_TRUE(core::SaveAdapter(*adapter, options, path).ok());

  auto loaded = core::LoadAdapter(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->fitted());
  EXPECT_EQ((*loaded)->kind(), GetParam());
  EXPECT_EQ((*loaded)->name(), adapter->name());
  Tensor original = *adapter->Transform(x);
  Tensor reloaded = *(*loaded)->Transform(x);
  EXPECT_LT(MaxAbsDiff(original, reloaded), 1e-6f);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AdapterSerializationSuite,
                         ::testing::Values(AdapterKind::kNone,
                                           AdapterKind::kPca,
                                           AdapterKind::kSvd,
                                           AdapterKind::kRandProj,
                                           AdapterKind::kVar,
                                           AdapterKind::kLcomb,
                                           AdapterKind::kLcombTopK),
                         [](const auto& info) {
                           return core::AdapterKindName(info.param);
                         });

TEST(AdapterSerializationTest, SaveUnfittedFails) {
  AdapterOptions options;
  auto adapter = core::CreateAdapter(AdapterKind::kPca, options);
  EXPECT_FALSE(
      core::SaveAdapter(*adapter, options, ::testing::TempDir() + "/x.bin")
          .ok());
}

TEST(AdapterSerializationTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage_adapter.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not an adapter";
  }
  EXPECT_FALSE(core::LoadAdapter(path).ok());
  EXPECT_FALSE(core::LoadAdapter("/nonexistent/adapter.bin").ok());
  std::remove(path.c_str());
}

TEST(AdapterSerializationTest, LoadRejectsRetiredAndUnknownKinds) {
  // A saved PCA adapter with only its kind tag rewritten: 7 belonged to a
  // retired adapter, 8 was never assigned. The container and the rest of
  // the payload stay valid, so only the kind check can refuse the file.
  constexpr uint64_t kAdapterMagic = 0x325044414D465354ULL;  // "TSFMADP2"
  constexpr uint32_t kAdapterVersion = 2;
  AdapterOptions options;
  options.out_channels = 2;
  core::PcaAdapter pca(options);
  ASSERT_TRUE(pca.Fit(CorrelatedData(6, 8, 4, 2, 17), DummyLabels(6)).ok());
  const std::string path = ::testing::TempDir() + "/retired_kind.bin";
  ASSERT_TRUE(core::SaveAdapter(pca, options, path).ok());
  ASSERT_TRUE(core::LoadAdapter(path).ok());
  auto payload = io::ReadArtifactPayload(path, kAdapterMagic, kAdapterVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  for (uint64_t kind : {uint64_t{7}, uint64_t{8}}) {
    std::ostringstream tag;
    core::io::WriteU64(&tag, kind);
    std::string patched = *payload;
    patched.replace(0, tag.str().size(), tag.str());
    ASSERT_TRUE(
        io::WriteArtifact(path, kAdapterMagic, kAdapterVersion, patched).ok());
    auto loaded = core::LoadAdapter(path);
    ASSERT_FALSE(loaded.ok()) << "kind " << kind;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(AdapterSerializationTest, PatchPcaRoundTripKeepsWindow) {
  AdapterOptions options;
  options.out_channels = 3;
  options.pca_patch_window = 4;
  core::PcaAdapter pca(options);
  Tensor x = CorrelatedData(5, 16, 6, 3, 91);
  ASSERT_TRUE(pca.Fit(x, DummyLabels(5)).ok());
  const std::string path = ::testing::TempDir() + "/patch_pca.bin";
  ASSERT_TRUE(core::SaveAdapter(pca, options, path).ok());
  auto loaded = core::LoadAdapter(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->name(), "PatchPCA_4");
  Tensor out = *(*loaded)->Transform(x);
  EXPECT_EQ(out.shape(), (Shape{5, 4, 3}));  // time coarsened by the window
  std::remove(path.c_str());
}

// ------------------- Property sweep over adapter kinds ---------------------

class StaticAdapterSuite : public ::testing::TestWithParam<AdapterKind> {};

TEST_P(StaticAdapterSuite, ShapeContractAndDeterminism) {
  AdapterOptions options;
  options.out_channels = 4;
  auto adapter = core::CreateAdapter(GetParam(), options);
  Tensor x = CorrelatedData(6, 12, 9, 5, 24);
  ASSERT_TRUE(adapter->Fit(x, DummyLabels(6)).ok());
  EXPECT_TRUE(adapter->fitted());
  EXPECT_EQ(adapter->output_channels(), 4);
  auto out1 = adapter->Transform(x);
  auto out2 = adapter->Transform(x);
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out1->dim(0), 6);
  EXPECT_EQ(out1->dim(2), 4);
  EXPECT_TRUE(AllClose(*out1, *out2));  // deterministic
  // TransformVar default agrees with Transform.
  ag::Var v = adapter->TransformVar(ag::Constant(x));
  EXPECT_TRUE(AllClose(v.value(), *out1));
}

INSTANTIATE_TEST_SUITE_P(AllStaticKinds, StaticAdapterSuite,
                         ::testing::Values(AdapterKind::kPca, AdapterKind::kSvd,
                                           AdapterKind::kRandProj,
                                           AdapterKind::kVar),
                         [](const auto& info) {
                           return core::AdapterKindName(info.param);
                         });

class ReductionQualitySuite : public ::testing::TestWithParam<AdapterKind> {};

TEST_P(ReductionQualitySuite, PreservesLowRankSignalEnergy) {
  // Rank-3 data reduced to 5 dims: linear-projection adapters must keep a
  // non-trivial share of the signal (VAR keeps exact channels, trivially ok).
  AdapterOptions options;
  options.out_channels = 5;
  auto adapter = core::CreateAdapter(GetParam(), options);
  Tensor x = CorrelatedData(10, 8, 16, 3, 25);
  ASSERT_TRUE(adapter->Fit(x, DummyLabels(10)).ok());
  Tensor out = *adapter->Transform(x);
  EXPECT_GT(Norm(out), 0.05f * Norm(x));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReductionQualitySuite,
                         ::testing::Values(AdapterKind::kPca, AdapterKind::kSvd,
                                           AdapterKind::kRandProj,
                                           AdapterKind::kVar),
                         [](const auto& info) {
                           return core::AdapterKindName(info.param);
                         });

}  // namespace
}  // namespace tsfm
