#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adapter.h"
#include "core/lcomb_adapter.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "models/moment.h"
#include "models/vit.h"
#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/stages.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using core::AdapterKind;
using core::AdapterOptions;
using finetune::FineTune;
using finetune::FineTuneOptions;
using finetune::Strategy;

// A small, learnable dataset: two classes with clearly different latent
// frequencies, 8 redundant channels, short series.
data::DatasetPair SmallProblem(uint64_t seed = 1) {
  data::UeaDatasetSpec spec{"toy", "toy", 48, 32, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

std::shared_ptr<models::MomentModel> TinyMoment(uint64_t seed = 11) {
  Rng rng(seed);
  auto model =
      std::make_shared<models::MomentModel>(models::MomentTestConfig(), &rng);
  models::PretrainOptions po;
  po.corpus_size = 48;
  po.series_length = 32;
  po.epochs = 2;
  EXPECT_TRUE(model->Pretrain(po).ok());
  return model;
}

FineTuneOptions QuickOptions(Strategy strategy) {
  FineTuneOptions o;
  o.strategy = strategy;
  o.head_epochs = 40;
  o.joint_epochs = 6;
  o.batch_size = 16;
  return o;
}

// Every encoder parameter is back to requiring grad, as Module made it.
void ExpectEncoderRequiresGrad(const models::FoundationModel& model) {
  for (const auto& [name, p] : model.NamedParameters()) {
    EXPECT_TRUE(p.requires_grad()) << name;
  }
}

TEST(FineTuneTest, HeadOnlyNoAdapterBeatsChance) {
  auto model = TinyMoment();
  auto pair = SmallProblem();
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test,
                    QuickOptions(Strategy::kHeadOnly));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->test_accuracy, 0.6);  // chance = 0.5
  EXPECT_GT(r->train_accuracy, 0.6);
  EXPECT_GT(r->total_seconds, 0.0);
}

TEST(FineTuneTest, PcaAdapterPlusHeadBeatsChance) {
  auto model = TinyMoment();
  auto pair = SmallProblem(2);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kPca, ao);
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->test_accuracy, 0.6);
  EXPECT_TRUE(adapter->fitted());
  EXPECT_GE(r->adapter_fit_seconds, 0.0);
}

TEST(FineTuneTest, EveryStaticAdapterLearnsTheToyProblem) {
  auto model = TinyMoment();
  auto pair = SmallProblem(3);
  for (AdapterKind kind : {AdapterKind::kPca, AdapterKind::kSvd,
                           AdapterKind::kRandProj, AdapterKind::kVar}) {
    AdapterOptions ao;
    ao.out_channels = 3;
    auto adapter = core::CreateAdapter(kind, ao);
    auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                      QuickOptions(Strategy::kAdapterPlusHead));
    ASSERT_TRUE(r.ok()) << core::AdapterKindName(kind);
    EXPECT_GT(r->test_accuracy, 0.55) << core::AdapterKindName(kind);
  }
}

TEST(FineTuneTest, LcombTrainsJointlyAndImproves) {
  auto model = TinyMoment();
  auto pair = SmallProblem(4);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kLcomb, ao);
  auto* lcomb = static_cast<core::LinearCombinerAdapter*>(adapter.get());
  // Capture initial weight by fitting first (FineTune will refit; same seed
  // path is deterministic, so weight_before reflects the starting point).
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->test_accuracy, 0.55);
  // The adapter weight has been trained away from its random init: gradient
  // steps leave a trace (non-zero optimizer history is hard to probe, so
  // check the weight changed across a second, untrained fit with same seed).
  AdapterOptions ao2 = ao;
  core::LinearCombinerAdapter fresh(ao2, false);
  // Note: FineTune re-seeds adapter options; compare against a fresh fit on
  // the same normalized data is approximated by norm difference.
  data::ChannelStats stats = data::ComputeChannelStats(pair.train);
  auto normalized = data::NormalizeWith(pair.train, stats);
  ASSERT_TRUE(fresh.Fit(normalized.x, normalized.y).ok());
  EXPECT_GT(Norm(lcomb->weight().value()), 0.0f);
}

TEST(FineTuneTest, LcombTopKRuns) {
  auto model = TinyMoment();
  auto pair = SmallProblem(5);
  AdapterOptions ao;
  ao.out_channels = 3;
  ao.top_k = 4;
  auto adapter = core::CreateAdapter(AdapterKind::kLcombTopK, ao);
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->test_accuracy, 0.45);
}

TEST(FineTuneTest, FullFineTuneRunsAndLearns) {
  auto model = TinyMoment();
  auto pair = SmallProblem(6);
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test,
                    QuickOptions(Strategy::kFullFineTune));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->test_accuracy, 0.55);
}

TEST(FineTuneTest, FullFineTuneMutatesModel) {
  auto model = TinyMoment();
  auto pair = SmallProblem(7);
  Rng probe_rng(1);
  Tensor probe = Tensor::RandN({1, 32, 2}, &probe_rng);
  nn::ForwardContext ctx{false, nullptr};
  Tensor before = model->EncodeChannels(ag::Constant(probe), ctx).value();
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test,
                    QuickOptions(Strategy::kFullFineTune));
  ASSERT_TRUE(r.ok());
  Tensor after = model->EncodeChannels(ag::Constant(probe), ctx).value();
  EXPECT_GT(MaxAbsDiff(before, after), 1e-6f);
}

// The tensor.matmul_flops delta of one lcomb fit under `strategy`, on a
// fresh model.
double LcombFitMatmulFlops(Strategy strategy) {
  auto model = TinyMoment();
  auto pair = SmallProblem(15);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kLcomb, ao);
  const auto& registry = obs::Registry::Instance();
  const double before = registry.TakeSnapshot().at("tensor.matmul_flops");
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(strategy));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return registry.TakeSnapshot().at("tensor.matmul_flops") - before;
}

// Adapter+head trains only the adapter and the head: backward stops at the
// frozen encoder's weights, so the same steps and evaluations cost fewer
// matmul FLOPs than full fine-tuning, which also needs the weight gradients.
TEST(FineTuneTest, AdapterPlusHeadSkipsEncoderWeightGradients) {
  const double adapter_plus_head =
      LcombFitMatmulFlops(Strategy::kAdapterPlusHead);
  const double full = LcombFitMatmulFlops(Strategy::kFullFineTune);
  EXPECT_GT(adapter_plus_head, 0.0);
  EXPECT_LT(adapter_plus_head, full);
}

// The joint loop freezes the encoder only for its own duration: afterwards
// every parameter requires grad again and holds exactly its old bytes.
TEST(FineTuneTest, JointLoopRestoresEncoderFlags) {
  auto model = TinyMoment();
  auto pair = SmallProblem(16);
  std::vector<Tensor> before;
  for (const auto& p : model->Parameters()) {
    before.push_back(p.value().Clone());
  }
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kLcomb, ao);
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectEncoderRequiresGrad(*model);
  const std::vector<ag::Var> after = model->Parameters();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    const Tensor v = after[i].value().Contiguous();
    ASSERT_EQ(v.shape(), before[i].shape());
    EXPECT_EQ(std::memcmp(v.data(), before[i].data(),
                          sizeof(float) * static_cast<size_t>(v.numel())),
              0)
        << "parameter " << i;
  }
}

TEST(FineTuneTest, HeadOnlyDoesNotMutateModel) {
  auto model = TinyMoment();
  auto pair = SmallProblem(8);
  Rng probe_rng(2);
  Tensor probe = Tensor::RandN({1, 32, 2}, &probe_rng);
  nn::ForwardContext ctx{false, nullptr};
  Tensor before = model->EncodeChannels(ag::Constant(probe), ctx).value();
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test,
                    QuickOptions(Strategy::kHeadOnly));
  ASSERT_TRUE(r.ok());
  Tensor after = model->EncodeChannels(ag::Constant(probe), ctx).value();
  EXPECT_LT(MaxAbsDiff(before, after), 1e-7f);
}

TEST(FineTuneTest, DeterministicPerSeed) {
  auto pair = SmallProblem(9);
  auto run = [&](uint64_t seed) {
    auto model = TinyMoment(123);  // identical init + pretraining
    FineTuneOptions o = QuickOptions(Strategy::kHeadOnly);
    o.seed = seed;
    auto r = FineTune(model.get(), nullptr, pair.train, pair.test, o);
    EXPECT_TRUE(r.ok());
    return r->test_accuracy;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(FineTuneTest, RejectsInconsistentSplits) {
  auto model = TinyMoment();
  auto pair = SmallProblem(10);
  data::TimeSeriesDataset bad_test = pair.test;
  bad_test.x = Tensor(Shape{bad_test.size(), 32, 9});  // wrong channels
  auto r = FineTune(model.get(), nullptr, pair.train, bad_test,
                    QuickOptions(Strategy::kHeadOnly));
  EXPECT_FALSE(r.ok());
}

TEST(FineTuneTest, PropagatesAdapterFailure) {
  auto model = TinyMoment();
  auto pair = SmallProblem(11);
  AdapterOptions ao;
  ao.out_channels = 100;  // > D -> Fit fails
  auto adapter = core::CreateAdapter(AdapterKind::kPca, ao);
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  EXPECT_FALSE(r.ok());
}

TEST(EmbedDatasetTest, ShapeAndBatchingConsistency) {
  auto model = TinyMoment();
  Rng rng(3);
  Tensor x = Tensor::RandN({10, 32, 3}, &rng);
  Tensor full = pipeline::EmbedDataset(*model, x, 10);
  Tensor chunked = pipeline::EmbedDataset(*model, x, 3);
  EXPECT_EQ(full.shape(), (Shape{10, 16}));
  EXPECT_LT(MaxAbsDiff(full, chunked), 1e-5f);
}

TEST(FineTuneTest, EpochCallbackDeliversFullTimeline) {
  auto model = TinyMoment();
  auto pair = SmallProblem(12);
  FineTuneOptions o = QuickOptions(Strategy::kHeadOnly);
  o.head_epochs = 5;
  std::vector<pipeline::EpochProgress> timeline;
  o.on_epoch = [&](const pipeline::EpochProgress& p) {
    timeline.push_back(p);
  };
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(timeline.size(), 5u);
  for (size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].epoch, static_cast<int64_t>(i));
    EXPECT_EQ(timeline[i].total_epochs, 5);
    EXPECT_EQ(timeline[i].phase, pipeline::Phase::kHead);
    EXPECT_STREQ(pipeline::PhaseName(timeline[i].phase), "head");
    EXPECT_GE(timeline[i].accuracy, 0.0);
    EXPECT_LE(timeline[i].accuracy, 1.0);
    EXPECT_GT(timeline[i].seconds, 0.0);
    EXPECT_GT(timeline[i].pool_live_bytes, 0);
  }
  // Training converges, so the last epoch should not be less accurate than
  // the first by a wide margin — and loss must drop.
  EXPECT_LT(timeline.back().loss, timeline.front().loss);
}

// Stage names of a run's timing rows, in row order; every row's time is a
// real measurement.
std::vector<std::string> StageNames(const finetune::FineTuneResult& r) {
  std::vector<std::string> names;
  for (const auto& row : r.stage_timings) {
    names.push_back(row.stage);
    EXPECT_GT(row.seconds, 0.0) << row.stage;
  }
  return names;
}

// The embed-once path reports each stage once, in the order the stages ran:
// the test pass adds to the train pass's rows instead of appending its own.
TEST(FineTuneTest, EmbedOnceReportsEachStageOnceInOrder) {
  auto model = TinyMoment();
  auto pair = SmallProblem(14);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kPca, ao);
  FineTuneOptions o = QuickOptions(Strategy::kAdapterPlusHead);
  o.head_epochs = 3;
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StageNames(*r), (std::vector<std::string>{"normalize", "adapt",
                                                      "embed", "head"}));
}

// The joint path times its prologue (normalize, adapter fit) as stages; the
// encoder and head train in the joint loop, which is not a stage.
TEST(FineTuneTest, JointPrologueReportsNormalizeAndAdapt) {
  auto model = TinyMoment();
  auto pair = SmallProblem(15);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kLcomb, ao);
  FineTuneOptions o = QuickOptions(Strategy::kAdapterPlusHead);
  o.joint_epochs = 1;
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StageNames(*r), (std::vector<std::string>{"normalize", "adapt"}));
}

TEST(FineTuneTest, TinyMemoryBudgetStopsRunWithDiagnosis) {
  auto model = TinyMoment();
  auto pair = SmallProblem(13);

  // Record spans so the diagnosis can name the hottest ones.
  obs::EnableTracing();
  obs::ClearTrace();

  obs::BudgetLimits limits;
  limits.mem_bytes = 1024;  // far below any real fine-tune footprint
  obs::SetBudget(limits);
  auto r = FineTune(model.get(), nullptr, pair.train, pair.test,
                    QuickOptions(Strategy::kHeadOnly));
  obs::ClearBudget();
  obs::DisableTracing();
  obs::ClearTrace();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget exceeded"),
            std::string::npos);
  // The diagnosis names the loop that tripped and the top profiler nodes.
  EXPECT_NE(r.status().message().find("finetune."), std::string::npos);
  EXPECT_NE(r.status().message().find("hottest spans"), std::string::npos);
}

TEST(FineTuneTest, TinyTimeBudgetStopsJointLoop) {
  auto model = TinyMoment();
  auto pair = SmallProblem(14);
  AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(AdapterKind::kLcomb, ao);

  obs::BudgetLimits limits;
  limits.time_seconds = 1e-9;
  obs::SetBudget(limits);
  auto r = FineTune(model.get(), adapter.get(), pair.train, pair.test,
                    QuickOptions(Strategy::kAdapterPlusHead));
  obs::ClearBudget();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("time budget exceeded"),
            std::string::npos);
  // The early return out of the joint loop unfreezes the encoder too.
  EXPECT_NE(r.status().message().find("finetune.joint_epoch"),
            std::string::npos);
  ExpectEncoderRequiresGrad(*model);
}

}  // namespace
}  // namespace tsfm
