#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using finetune::ClassifierConfig;
using finetune::TsfmClassifier;

data::DatasetPair Problem(uint64_t seed = 1) {
  data::UeaDatasetSpec spec{"clf_toy", "ct", 48, 32, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

ClassifierConfig QuickConfig(models::ModelKind kind = models::ModelKind::kVit) {
  ClassifierConfig config;
  config.model_kind = kind;
  config.model_config = kind == models::ModelKind::kVit
                            ? models::VitTestConfig()
                            : models::MomentTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.finetune.head_epochs = 40;
  config.adapter_options.out_channels = 3;
  return config;
}

TEST(ClassifierTest, FitPredictEvaluateFlow) {
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  EXPECT_FALSE(clf->fitted());
  auto pair = Problem();
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  EXPECT_TRUE(clf->fitted());
  EXPECT_GT(clf->last_fit_result().test_accuracy, 0.55);

  auto preds = clf->Predict(pair.test.x);
  ASSERT_TRUE(preds.ok());
  EXPECT_EQ(preds->size(), static_cast<size_t>(pair.test.size()));
  auto acc = clf->Evaluate(pair.test);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.55);
}

TEST(ClassifierTest, PredictMatchesFitTimeEvaluation) {
  // Evaluate() after Fit must agree with the accuracy FineTune reported on
  // the same split — i.e. Predict applies identical preprocessing.
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok());
  auto pair = Problem(2);
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  auto acc = clf->Evaluate(pair.test);
  ASSERT_TRUE(acc.ok());
  EXPECT_NEAR(*acc, clf->last_fit_result().test_accuracy, 1e-9);
}

TEST(ClassifierTest, WorksWithoutAdapter) {
  ClassifierConfig config = QuickConfig();
  config.adapter = std::nullopt;
  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok());
  EXPECT_EQ(clf->adapter(), nullptr);
  auto pair = Problem(3);
  ASSERT_TRUE(clf->Fit(pair.train).ok());
  auto acc = clf->Evaluate(pair.test);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.5);
}

TEST(ClassifierTest, WorksWithLearnableAdapter) {
  ClassifierConfig config = QuickConfig();
  config.adapter = core::AdapterKind::kLcomb;
  config.finetune.joint_epochs = 5;
  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok());
  auto pair = Problem(4);
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  auto acc = clf->Evaluate(pair.test);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.5);
}

TEST(ClassifierTest, MomentFamilyDefaultsConfig) {
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kMoment;
  config.model_config = models::MomentTestConfig();
  config.pretrain.corpus_size = 32;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.adapter_options.out_channels = 3;
  config.finetune.head_epochs = 20;
  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok());
  auto pair = Problem(5);
  ASSERT_TRUE(clf->Fit(pair.train).ok());
  EXPECT_TRUE(clf->fitted());
}

TEST(ClassifierTest, ErrorsBeforeFitAndOnBadShapes) {
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok());
  EXPECT_FALSE(clf->Predict(Tensor(Shape{2, 32, 8})).ok());  // not fitted
  auto pair = Problem(6);
  ASSERT_TRUE(clf->Fit(pair.train).ok());
  EXPECT_FALSE(clf->Predict(Tensor(Shape{2, 32})).ok());  // not (N, T, D)
}

TEST(ClassifierTest, SaveLoadRoundTripPredictsIdentically) {
  auto pair = Problem(12);
  const std::string ckpt = ::testing::TempDir() + "/clf_model.ckpt";
  ClassifierConfig config = QuickConfig();
  config.checkpoint_path = ckpt;  // shared pretrained weights

  auto trained = TsfmClassifier::Create(config);
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(trained->Fit(pair.train).ok());
  const std::string prefix = ::testing::TempDir() + "/clf_pipeline";
  ASSERT_TRUE(trained->Save(prefix).ok());
  auto p1 = trained->Predict(pair.test.x);
  ASSERT_TRUE(p1.ok());

  // A fresh classifier (same config, same model checkpoint) restores the
  // fitted pipeline and predicts identically without refitting.
  auto restored = TsfmClassifier::Create(config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(
      restored->Load(prefix, pair.train.num_classes).ok());
  EXPECT_TRUE(restored->fitted());
  auto p2 = restored->Predict(pair.test.x);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);
  for (const char* suffix : {".adapter", ".head", ".stats"}) {
    std::remove((prefix + suffix).c_str());
  }
  std::remove(ckpt.c_str());
}

TEST(ClassifierTest, SaveRequiresFit) {
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok());
  EXPECT_FALSE(clf->Save(::testing::TempDir() + "/nope").ok());
}

TEST(ClassifierTest, LoadRejectsMissingFilesAndBadClasses) {
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok());
  EXPECT_FALSE(clf->Load("/nonexistent/prefix", 2).ok());
  EXPECT_FALSE(clf->Load(::testing::TempDir() + "/x", 0).ok());
}

TEST(ClassifierTest, PredictIsDeterministic) {
  auto clf = TsfmClassifier::Create(QuickConfig());
  ASSERT_TRUE(clf.ok());
  auto pair = Problem(7);
  ASSERT_TRUE(clf->Fit(pair.train).ok());
  auto p1 = clf->Predict(pair.test.x);
  auto p2 = clf->Predict(pair.test.x);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);
}

TEST(ClassifierTest, FitAssemblesAndWritesRunReport) {
  ClassifierConfig config = QuickConfig();
  config.finetune.head_epochs = 5;
  config.report_dir = ::testing::TempDir() + "/classifier_report_dir";
  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  auto pair = Problem(8);
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());

  const obs::RunReport& report = clf->last_report();
  EXPECT_EQ(report.command, "classify");
  EXPECT_EQ(report.model, "ViT");
  EXPECT_EQ(report.adapter, "PCA");
  EXPECT_EQ(report.dprime, 3);
  ASSERT_EQ(report.epochs.size(), 5u);
  EXPECT_EQ(report.epochs.front().phase, "head");
  EXPECT_GT(report.epochs.front().pool_live_bytes, 0.0);
  EXPECT_GT(report.mem_peak_bytes, 0.0);
  EXPECT_DOUBLE_EQ(report.test_accuracy,
                   clf->last_fit_result().test_accuracy);
  // The paper-scale prediction for this configuration rides along.
  EXPECT_TRUE(report.has_estimate);
  EXPECT_EQ(report.estimate_regime, "embed_once_head_only");
  EXPECT_EQ(report.estimate_channels, 3);
  // No budget configured: the verdict is trivially "fits".
  EXPECT_TRUE(report.budget.fits());

  ASSERT_FALSE(clf->last_report_path().empty());
  std::ifstream is(clf->last_report_path());
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_NE(buf.str().find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(buf.str().find("\"estimate\""), std::string::npos);
  std::remove(clf->last_report_path().c_str());
}

// The epoch-collector callback chains onto (not replaces) a user-installed
// one.
TEST(ClassifierTest, ReportCollectorChainsUserCallback) {
  ClassifierConfig config = QuickConfig();
  config.finetune.head_epochs = 3;
  int user_calls = 0;
  config.finetune.on_epoch = [&](const pipeline::EpochProgress&) {
    ++user_calls;
  };
  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok());
  auto pair = Problem(9);
  ASSERT_TRUE(clf->Fit(pair.train).ok());
  EXPECT_EQ(user_calls, 3);
  EXPECT_EQ(clf->last_report().epochs.size(), 3u);
}

}  // namespace
}  // namespace tsfm
