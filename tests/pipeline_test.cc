// Tests of the pipeline layer: the four stages, fitted-bundle persistence,
// and the fitted round trip Save -> Load -> Predict staying bit-identical
// for every adapter kind and for none.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "pipeline/registry.h"
#include "pipeline/session.h"
#include "pipeline/stages.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using finetune::ClassifierConfig;
using finetune::TsfmClassifier;

data::DatasetPair Problem(uint64_t seed = 1) {
  data::UeaDatasetSpec spec{"pipe_toy", "pt", 40, 24, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

std::shared_ptr<models::MomentModel> TinyMoment(uint64_t seed = 11) {
  Rng rng(seed);
  auto model =
      std::make_shared<models::MomentModel>(models::MomentTestConfig(), &rng);
  models::PretrainOptions po;
  po.corpus_size = 48;
  po.series_length = 32;
  po.epochs = 1;
  EXPECT_TRUE(model->Pretrain(po).ok());
  return model;
}

std::string TempPath(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.Contiguous().data(), b.Contiguous().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Stages

TEST(PipelineStagesTest, NormalizeStageMatchesDatasetNormalization) {
  auto pair = Problem(3);
  pipeline::NormalizeStage stage;
  pipeline::ExecutionContext ctx;
  // Apply before Fit has no statistics to apply.
  auto unfitted = stage.Apply(pair.train.x, ctx);
  ASSERT_FALSE(unfitted.ok());
  EXPECT_EQ(unfitted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unfitted.status().ToString().find("normalize"), std::string::npos);

  ASSERT_TRUE(stage.Fit(pair.train.x, pair.train.y, ctx).ok());
  auto applied = stage.Apply(pair.train.x, ctx);
  ASSERT_TRUE(applied.ok());
  const data::TimeSeriesDataset reference =
      data::NormalizeWith(pair.train, data::ComputeChannelStats(pair.train));
  EXPECT_TRUE(BitIdentical(*applied, reference.x));

  // Restore constructor: a stage rebuilt from the fitted stats applies
  // without a Fit and produces identical output.
  pipeline::NormalizeStage restored(stage.stats());
  auto reapplied = restored.Apply(pair.train.x, ctx);
  ASSERT_TRUE(reapplied.ok());
  EXPECT_TRUE(BitIdentical(*applied, *reapplied));
}

TEST(PipelineStagesTest, AdaptStageDelegatesToAdapter) {
  auto pair = Problem(4);
  core::AdapterOptions options;
  options.out_channels = 3;
  std::shared_ptr<core::Adapter> adapter =
      core::CreateAdapter(core::AdapterKind::kPca, options);
  ASSERT_NE(adapter, nullptr);
  pipeline::AdaptStage stage(adapter);

  pipeline::ExecutionContext ctx;
  ASSERT_TRUE(stage.Fit(pair.train.x, pair.train.y, ctx).ok());
  EXPECT_TRUE(adapter->fitted());
  EXPECT_GT(stage.last_fit_seconds(), 0.0);

  auto out = stage.Apply(pair.train.x, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dim(2), 3);

  auto direct = adapter->Transform(pair.train.x);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(BitIdentical(*out, *direct));
}

TEST(PipelineStagesTest, EmbedAndHeadStagesComposeToLogits) {
  auto model = TinyMoment();
  auto pair = Problem(5);
  pipeline::EmbedStage embed(model);

  pipeline::ExecutionContext ctx;
  ctx.batch_size = 16;
  ctx.seed = 7;
  auto emb = embed.Apply(pair.train.x, ctx);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->dim(0), pair.train.size());
  EXPECT_EQ(emb->dim(1), model->embedding_dim());
  // Same math as the free function it wraps.
  EXPECT_TRUE(BitIdentical(
      *emb, pipeline::EmbedDataset(*model, pair.train.x, 16)));

  Rng head_rng(3);
  auto head = std::make_shared<models::ClassificationHead>(
      model->embedding_dim(), pair.train.num_classes, &head_rng);
  pipeline::HeadStage head_stage(head, model->embedding_dim(),
                                 pair.train.num_classes,
                                 pipeline::HeadTrainOptions{4, 5e-2f, 1e-4f});
  // The head's shape is the stage's contract: embeddings of another width
  // and labels outside [0, C) are refused before any training step.
  const Tensor narrow = Slice(*emb, 1, 0, model->embedding_dim() - 1);
  EXPECT_EQ(head_stage.Fit(narrow, pair.train.y, ctx).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(head_stage.Apply(narrow, ctx).ok());
  std::vector<int64_t> bad_labels = pair.train.y;
  bad_labels[0] = pair.train.num_classes;
  EXPECT_EQ(head_stage.Fit(*emb, bad_labels, ctx).code(),
            StatusCode::kInvalidArgument);
  bad_labels.pop_back();
  EXPECT_EQ(head_stage.Fit(*emb, bad_labels, ctx).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(head_stage.Fit(*emb, pair.train.y, ctx).ok());
  EXPECT_GT(head_stage.final_loss(), 0.0);

  auto logits = head_stage.Apply(*emb, ctx);
  ASSERT_TRUE(logits.ok());
  EXPECT_EQ(logits->dim(1), pair.train.num_classes);
}

// ---------------------------------------------------------------------------
// Registry: artifact naming, bundle persistence, hot swap

TEST(RegistryTest, ArtifactNaming) {
  EXPECT_EQ(pipeline::AdapterArtifactPath("p"), "p.adapter");
  EXPECT_EQ(pipeline::HeadArtifactPath("p"), "p.head");
  EXPECT_EQ(pipeline::StatsArtifactPath("p"), "p.stats");
}

TEST(RegistryTest, InstallGetAndHotSwap) {
  auto model = TinyMoment();
  auto pair = Problem(9);
  data::ChannelStats stats = data::ComputeChannelStats(pair.train);
  Rng head_rng(1);
  auto head = std::make_shared<models::ClassificationHead>(
      model->embedding_dim(), pair.train.num_classes, &head_rng);

  pipeline::SessionOptions options;
  auto session_a = pipeline::InferenceSession::Create(
      model, nullptr, head, stats, pair.train.num_classes, options);
  ASSERT_TRUE(session_a.ok()) << session_a.status().ToString();
  auto session_b = pipeline::InferenceSession::Create(
      model, nullptr, head, stats, pair.train.num_classes, options);
  ASSERT_TRUE(session_b.ok());

  pipeline::Registry registry;
  EXPECT_EQ(registry.Get("clf"), nullptr);
  EXPECT_FALSE(registry.Install("clf", nullptr).ok());
  EXPECT_FALSE(registry.Install("", *session_a).ok());
  ASSERT_TRUE(registry.Install("clf", *session_a).ok());
  EXPECT_EQ(registry.Get("clf"), *session_a);

  // Hot swap: same name, new session; old handle keeps working.
  auto held = registry.Get("clf");
  ASSERT_TRUE(registry.Install("clf", *session_b).ok());
  EXPECT_EQ(registry.Get("clf"), *session_b);
  auto preds = held->PredictBatch(pair.test.x);  // swapped-out session lives
  EXPECT_TRUE(preds.ok());
}

TEST(RegistryTest, LoadAndInstallServesSavedClassifier) {
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kVit;
  config.model_config = models::VitTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.finetune.head_epochs = 6;
  config.adapter_options.out_channels = 3;
  config.checkpoint_path = TempPath("pipe_registry_ckpt.tsfm");
  std::filesystem::remove(config.checkpoint_path);

  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  auto pair = Problem(10);
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  const std::string prefix = TempPath("pipe_registry_bundle");
  ASSERT_TRUE(clf->Save(prefix).ok());

  auto reference = clf->Predict(pair.test.x);
  ASSERT_TRUE(reference.ok());

  // A registry can reconstruct the serving session from artifacts + model.
  pipeline::Registry registry;
  pipeline::SessionOptions options;
  options.normalize = config.finetune.normalize;
  options.batch_size = config.finetune.batch_size;
  std::shared_ptr<const models::FoundationModel> model(
      &clf->model(), [](const models::FoundationModel*) {});
  auto session = registry.LoadAndInstall("served", prefix, model,
                                         config.adapter,
                                         pair.train.num_classes, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(registry.Get("served"), *session);

  auto served = (*session)->PredictBatch(pair.test.x);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*served, *reference);

  // Wrong adapter expectation is rejected.
  auto wrong = registry.LoadAndInstall("bad", prefix, model,
                                       core::AdapterKind::kVar,
                                       pair.train.num_classes, options);
  EXPECT_FALSE(wrong.ok());

  std::filesystem::remove(config.checkpoint_path);
  for (const char* suffix : {".adapter", ".head", ".stats"}) {
    std::filesystem::remove(prefix + suffix);
  }
}

// ---------------------------------------------------------------------------
// Fitted round trip: Save -> Load -> Predict bit-identical to the pre-save
// classifier, for every adapter kind and for none.

void RunRoundTrip(std::optional<core::AdapterKind> kind) {
  SCOPED_TRACE(testing::Message()
               << "adapter="
               << (kind.has_value() ? core::AdapterKindName(*kind) : "none"));
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kVit;
  config.model_config = models::VitTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.finetune.head_epochs = 5;
  config.finetune.joint_epochs = 2;
  config.adapter = kind;
  config.adapter_options.out_channels = 3;
  // Shared checkpoint: pretrain once, reload for every variant.
  config.checkpoint_path = TempPath("pipe_roundtrip_ckpt.tsfm");

  auto clf = TsfmClassifier::Create(config);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  auto pair = Problem(11);
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());

  auto before = clf->Predict(pair.test.x);
  ASSERT_TRUE(before.ok());
  auto session_before = clf->session();
  ASSERT_NE(session_before, nullptr);
  auto logits_before = session_before->Logits(pair.test.x);
  ASSERT_TRUE(logits_before.ok());

  const std::string prefix =
      TempPath(std::string("pipe_roundtrip_") +
               (kind.has_value() ? core::AdapterKindName(*kind) : "none"));
  ASSERT_TRUE(clf->Save(prefix).ok());
  // The bundle records its adapter kind, or none.
  auto saved_kind = pipeline::SavedAdapterKind(prefix);
  ASSERT_TRUE(saved_kind.ok()) << saved_kind.status().ToString();
  EXPECT_EQ(*saved_kind, kind);

  auto reloaded = TsfmClassifier::Create(config);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded->Load(prefix, pair.train.num_classes).ok());

  auto after = reloaded->Predict(pair.test.x);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);

  auto logits_after = reloaded->session()->Logits(pair.test.x);
  ASSERT_TRUE(logits_after.ok());
  EXPECT_TRUE(BitIdentical(*logits_before, *logits_after));

  for (const char* suffix : {".adapter", ".head", ".stats"}) {
    std::filesystem::remove(prefix + suffix);
  }
}

TEST(PipelineRoundTripTest, EveryAdapterKindAndNone) {
  for (core::AdapterKind kind : core::AllAdapterKinds()) {
    RunRoundTrip(kind);
  }
  RunRoundTrip(std::nullopt);
}

}  // namespace
}  // namespace tsfm
