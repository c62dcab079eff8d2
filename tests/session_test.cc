// InferenceSession thread-safety: many threads hammering one immutable
// fitted session must each see predictions bit-identical to the serial
// reference. Built with -DTSFM_SANITIZE=thread in CI, this is the TSan
// witness for the serving path (encoder forward, buffer pool, adapter
// transform, head forward).

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "pipeline/registry.h"
#include "pipeline/session.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using finetune::ClassifierConfig;
using finetune::TsfmClassifier;

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 4;

data::DatasetPair Problem(uint64_t seed = 21) {
  data::UeaDatasetSpec spec{"sess_toy", "st", 40, 24, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

Result<TsfmClassifier> FittedClassifier(
    const data::DatasetPair& pair,
    core::AdapterKind adapter = core::AdapterKind::kPca) {
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kVit;
  config.model_config = models::VitTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.adapter = adapter;
  config.finetune.head_epochs = 8;
  config.finetune.joint_epochs = 2;
  config.adapter_options.out_channels = 3;
  TSFM_ASSIGN_OR_RETURN(TsfmClassifier clf, TsfmClassifier::Create(config));
  TSFM_RETURN_IF_ERROR(clf.Fit(pair.train, &pair.test));
  return clf;
}

TEST(SessionTest, CreateValidatesInputs) {
  auto pair = Problem();
  auto clf = FittedClassifier(pair);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  auto session = clf->session();
  ASSERT_NE(session, nullptr);

  // Missing parts are rejected.
  pipeline::SessionOptions options;
  auto no_model = pipeline::InferenceSession::Create(
      nullptr, nullptr, nullptr, data::ChannelStats{}, 2, options);
  EXPECT_FALSE(no_model.ok());
  // Normalize without stats is rejected.
  std::shared_ptr<const models::FoundationModel> model(
      &clf->model(), [](const models::FoundationModel*) {});
  Rng rng(1);
  auto head = std::make_shared<models::ClassificationHead>(
      clf->model().embedding_dim(), 2, &rng);
  auto no_stats = pipeline::InferenceSession::Create(
      model, nullptr, head, data::ChannelStats{}, 2, options);
  EXPECT_FALSE(no_stats.ok());
  // Shape errors surface as InvalidArgument.
  EXPECT_FALSE(session->PredictBatch(Tensor(Shape{4, 32})).ok());
}

TEST(SessionTest, PredictMatchesClassifierBitIdentical) {
  auto pair = Problem(22);
  auto clf = FittedClassifier(pair);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();

  auto facade = clf->Predict(pair.test.x);
  ASSERT_TRUE(facade.ok());
  auto session = clf->session();
  auto direct = session->PredictBatch(pair.test.x);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*facade, *direct);

  // An empty batch is refused as a bad argument on every surface.
  const Tensor empty(Shape{0, pair.test.x.dim(1), pair.test.x.dim(2)});
  EXPECT_EQ(session->PredictBatch(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Logits(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Embed(empty).status().code(),
            StatusCode::kInvalidArgument);

  // Single-sample surface agrees with the batch surface.
  Tensor one = Slice(pair.test.x, 0, 0, 1);
  auto single = session->Predict(one);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*single, (*direct)[0]);

  // Describe lists every stage the session runs, each with fitted state.
  const auto desc = session->Describe();
  ASSERT_EQ(desc.size(), 4u);  // normalize, adapt, embed, head
  EXPECT_EQ(desc[0].name, "normalize");
  EXPECT_EQ(desc[1].name, "adapt");
  EXPECT_EQ(desc[2].name, "embed");
  EXPECT_EQ(desc[3].name, "head");
  for (const auto& d : desc) {
    EXPECT_GT(d.state_bytes, 0);
    EXPECT_NE(d.signature.find("->"), std::string::npos);
  }
}

// The satellite requirement: >= 8 threads hammer one InferenceSession
// concurrently; every thread's every round must be bit-identical to the
// serial reference.
TEST(SessionTest, ConcurrentPredictIsBitIdenticalToSerial) {
  auto pair = Problem(23);
  auto clf = FittedClassifier(pair);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  std::shared_ptr<const pipeline::InferenceSession> session = clf->session();
  ASSERT_NE(session, nullptr);

  const auto reference = session->PredictBatch(pair.test.x);
  ASSERT_TRUE(reference.ok());
  const auto ref_logits = session->Logits(pair.test.x);
  ASSERT_TRUE(ref_logits.ok());
  const Tensor ref_contig = ref_logits->Contiguous();

  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        auto preds = session->PredictBatch(pair.test.x);
        if (!preds.ok()) {
          ++failures[t];
          continue;
        }
        if (*preds != *reference) ++mismatches[t];
        auto logits = session->Logits(pair.test.x);
        if (!logits.ok()) {
          ++failures[t];
          continue;
        }
        const Tensor contig = logits->Contiguous();
        if (contig.numel() != ref_contig.numel() ||
            std::memcmp(contig.data(), ref_contig.data(),
                        static_cast<size_t>(contig.numel()) * sizeof(float)) !=
                0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// A handed-out session keeps serving while its classifier refits with lcomb
// on another thread. The refit's joint loop flips requires_grad on the
// encoder weights the session shares; the session's no-grad forward must
// never read those flags (under TSan, a race report otherwise).
TEST(SessionTest, ServesWhileClassifierRefitsLcomb) {
  auto pair = Problem(27);
  auto clf = FittedClassifier(pair, core::AdapterKind::kLcomb);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  std::shared_ptr<const pipeline::InferenceSession> session = clf->session();
  const auto reference = session->PredictBatch(pair.test.x);
  ASSERT_TRUE(reference.ok());

  std::atomic<bool> serving{false};
  std::atomic<bool> refitting{true};
  int rounds = 0;
  int mismatches = 0;
  std::thread server([&] {
    do {
      auto preds = session->PredictBatch(pair.test.x);
      if (!preds.ok() || *preds != *reference) ++mismatches;
      ++rounds;
      serving.store(true);
    } while (refitting.load());
  });
  while (!serving.load()) std::this_thread::yield();
  const Status refit = clf->Fit(pair.train, &pair.test);
  refitting.store(false);
  server.join();

  ASSERT_TRUE(refit.ok()) << refit.ToString();
  EXPECT_NE(clf->session(), session);
  EXPECT_GT(rounds, 1);
  EXPECT_EQ(mismatches, 0);
}

// A classifier that fully fine-tunes a tiny MOMENT for one joint epoch.
Result<TsfmClassifier> FullFineTuneClassifier() {
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kMoment;
  config.model_config = models::MomentTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.adapter = core::AdapterKind::kPca;
  config.adapter_options.out_channels = 3;
  config.finetune.strategy = finetune::Strategy::kFullFineTune;
  config.finetune.joint_epochs = 1;
  return TsfmClassifier::Create(config);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  const Tensor ca = a.Contiguous();
  const Tensor cb = b.Contiguous();
  return ca.shape() == cb.shape() &&
         std::memcmp(ca.data(), cb.data(),
                     static_cast<size_t>(ca.numel()) * sizeof(float)) == 0;
}

Tensor HeadBytes(const pipeline::InferenceSession& session) {
  std::vector<Tensor> params;
  for (const auto& p : session.head().Parameters()) {
    params.push_back(p.value().Reshape({-1}));
  }
  return Concat(params, 0);
}

// Full fine-tuning trains the encoder, so a refit trains its own copy of
// the pretrained weights. A session handed out earlier keeps its logits bit
// for bit, also while it predicts during the refit (under TSan, a race on
// the encoder's weights otherwise).
TEST(SessionTest, FullFineTuneRefitLeavesEarlierSessionAlone) {
  auto pair = Problem(28);
  auto clf = FullFineTuneClassifier();
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  std::shared_ptr<const pipeline::InferenceSession> session = clf->session();
  const auto before = session->Logits(pair.test.x);
  ASSERT_TRUE(before.ok());

  std::atomic<bool> serving{false};
  std::atomic<bool> refitting{true};
  int rounds = 0;
  int mismatches = 0;
  std::thread server([&] {
    do {
      auto logits = session->Logits(pair.test.x);
      if (!logits.ok() || !SameBytes(*logits, *before)) ++mismatches;
      ++rounds;
      serving.store(true);
    } while (refitting.load());
  });
  while (!serving.load()) std::this_thread::yield();
  const Status refit = clf->Fit(pair.train, &pair.test);
  refitting.store(false);
  server.join();

  ASSERT_TRUE(refit.ok()) << refit.ToString();
  EXPECT_NE(clf->session(), session);
  EXPECT_GT(rounds, 1);
  EXPECT_EQ(mismatches, 0);
  const auto after = session->Logits(pair.test.x);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(SameBytes(*after, *before));
}

// Each full fine-tuning Fit starts from the pretrained weights, so two fits
// with one seed train the same head.
TEST(SessionTest, FullFineTuneFitsAreRepeatable) {
  auto pair = Problem(29);
  auto clf = FullFineTuneClassifier();
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  const Tensor first = HeadBytes(*clf->session());
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  EXPECT_TRUE(SameBytes(HeadBytes(*clf->session()), first));
}

// A fitted bundle holds no encoder weights, so saving a fully fine-tuned
// classifier would pair its head with the pretrained checkpoint on load.
TEST(SessionTest, SaveRefusesFullyFineTunedClassifier) {
  auto pair = Problem(30);
  auto clf = FullFineTuneClassifier();
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tsfm_session_full_ft";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "bundle").string();
  const Status saved = clf->Save(prefix);
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition) << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(prefix + ".head"));
  std::filesystem::remove_all(dir);
}

// Registry hot-swap under concurrent readers: Get always returns a usable
// session (old or new, never torn), and in-flight predictions on the
// swapped-out session finish correctly.
TEST(SessionTest, RegistryHotSwapUnderConcurrentReaders) {
  auto pair = Problem(25);
  auto clf = FittedClassifier(pair);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  auto session_a = clf->session();
  // Refit publishes a distinct session; the old one stays valid.
  ASSERT_TRUE(clf->Fit(pair.train, &pair.test).ok());
  auto session_b = clf->session();
  ASSERT_NE(session_a, session_b);

  const auto ref_a = session_a->PredictBatch(pair.test.x);
  const auto ref_b = session_b->PredictBatch(pair.test.x);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());

  pipeline::Registry registry;
  ASSERT_TRUE(registry.Install("clf", session_a).ok());

  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        auto live = registry.Get("clf");
        if (live == nullptr) {
          ++errors[t];
          continue;
        }
        auto preds = live->PredictBatch(pair.test.x);
        if (!preds.ok()) {
          ++errors[t];
          continue;
        }
        // Whichever session the swap raced to, the result must match that
        // session's serial reference.
        if (*preds != *ref_a && *preds != *ref_b) ++errors[t];
      }
    });
  }
  // Swap mid-flight.
  ASSERT_TRUE(registry.Install("clf", session_b).ok());
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
  }
  EXPECT_EQ(registry.Get("clf"), session_b);
}

}  // namespace
}  // namespace tsfm
