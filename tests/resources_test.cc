#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "pipeline/stages.h"
#include "models/moment.h"
#include "resources/cost_model.h"
#include "resources/measured.h"
#include "tensor/tensor.h"

namespace tsfm {
namespace {

using resources::EstimateRun;
using resources::GpuSpec;
using resources::MomentPaperSpec;
using resources::PaperModelSpec;
using resources::TrainRegime;
using resources::V100Spec;
using resources::Verdict;
using resources::VitPaperSpec;
using resources::Workload;

Workload WorkloadFor(const std::string& dataset, int64_t channels = -1) {
  auto spec = data::FindUeaSpec(dataset);
  EXPECT_TRUE(spec.ok());
  return Workload{spec->train_size, spec->test_size,
                  channels > 0 ? channels : spec->channels};
}

TEST(PaperSpecTest, ModelSizesMatchPaper) {
  EXPECT_EQ(MomentPaperSpec().params, 341'000'000);
  EXPECT_EQ(VitPaperSpec().params, 8'000'000);
  EXPECT_EQ(MomentPaperSpec().NumPatches(), 64);   // 512 / 8
  EXPECT_EQ(VitPaperSpec().NumPatches(), 127);     // (512-8)/4 + 1
}

TEST(GpuSpecTest, V100Budget) {
  GpuSpec gpu = V100Spec();
  EXPECT_DOUBLE_EQ(gpu.memory_bytes, 32.0 * (1ull << 30));
  EXPECT_DOUBLE_EQ(gpu.time_limit_seconds, 7200.0);
}

// ------------- The paper's Table 1: full fine-tuning, no adapter -----------

struct Table1Row {
  const char* dataset;
  Verdict moment;
  Verdict vit;
};

// Verdicts transcribed from Table 1 of the paper.
const Table1Row kTable1[] = {
    {"DuckDuckGeese", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"FaceDetection", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"FingerMovements", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"HandMovementDirection", Verdict::kOk, Verdict::kOk},
    {"Heartbeat", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"InsectWingbeat", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"JapaneseVowels", Verdict::kOk, Verdict::kOk},
    {"MotorImagery", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"NATOPS", Verdict::kTimeout, Verdict::kOk},
    {"PEMS-SF", Verdict::kCudaOutOfMemory, Verdict::kCudaOutOfMemory},
    {"PhonemeSpectra", Verdict::kTimeout, Verdict::kOk},
    {"SpokenArabicDigits", Verdict::kTimeout, Verdict::kOk},
};

TEST(CostModelTable1Test, MomentFullFineTuneVerdictsMatchPaper) {
  const PaperModelSpec model = MomentPaperSpec();
  const GpuSpec gpu = V100Spec();
  for (const auto& row : kTable1) {
    auto est = EstimateRun(model, gpu, WorkloadFor(row.dataset),
                           TrainRegime::kFullFineTune);
    EXPECT_EQ(est.verdict, row.moment)
        << row.dataset << ": got " << resources::VerdictString(est.verdict)
        << " want " << resources::VerdictString(row.moment)
        << " (peak GB=" << est.peak_memory_bytes / (1ull << 30)
        << ", seconds=" << est.total_seconds << ")";
  }
}

TEST(CostModelTable1Test, VitFullFineTuneVerdictsMatchPaper) {
  const PaperModelSpec model = VitPaperSpec();
  const GpuSpec gpu = V100Spec();
  for (const auto& row : kTable1) {
    auto est = EstimateRun(model, gpu, WorkloadFor(row.dataset),
                           TrainRegime::kFullFineTune);
    EXPECT_EQ(est.verdict, row.vit)
        << row.dataset << ": got " << resources::VerdictString(est.verdict)
        << " want " << resources::VerdictString(row.vit)
        << " (peak GB=" << est.peak_memory_bytes / (1ull << 30)
        << ", seconds=" << est.total_seconds << ")";
  }
}

// ---------- Section 4 / Appendix C.5: fit-on-GPU counts with lcomb ---------

TEST(CostModelTest, LcombAdapterPlusHeadFitsTwelveOfTwelveForVit) {
  const GpuSpec gpu = V100Spec();
  int fits = 0;
  for (const auto& spec : data::UeaSpecs()) {
    Workload w{spec.train_size, spec.test_size, /*channels=*/5};
    auto est = EstimateRun(VitPaperSpec(), gpu, w,
                           TrainRegime::kAdapterPlusHeadLearnable);
    if (est.verdict == Verdict::kOk) ++fits;
  }
  EXPECT_EQ(fits, 12);  // paper: "12 out of 12 datasets for ViT"
}

TEST(CostModelTest, LcombAdapterPlusHeadFitsNineOfTwelveForMoment) {
  const GpuSpec gpu = V100Spec();
  int fits = 0;
  std::vector<std::string> failing;
  for (const auto& spec : data::UeaSpecs()) {
    Workload w{spec.train_size, spec.test_size, /*channels=*/5};
    auto est = EstimateRun(MomentPaperSpec(), gpu, w,
                           TrainRegime::kAdapterPlusHeadLearnable);
    if (est.verdict == Verdict::kOk) {
      ++fits;
    } else {
      failing.push_back(spec.name);
    }
  }
  EXPECT_EQ(fits, 9);  // paper: "9 out of 12 datasets for MOMENT"
  // The three largest-N datasets are the ones that time out.
  ASSERT_EQ(failing.size(), 3u);
  EXPECT_EQ(failing[0], "FaceDetection");
  EXPECT_EQ(failing[1], "PhonemeSpectra");
  EXPECT_EQ(failing[2], "SpokenArabicDigits");
}

TEST(CostModelTest, FullFineTuneBehindAdapterFitsStrictlyMoreDatasets) {
  // Figure 6 / C.5 regime: full fine-tuning *behind* a D'=5 adapter. ViT
  // fits all 12; MOMENT fits strictly more than the 2 it manages without an
  // adapter (full FT costs more epochs than adapter+head, so its count lies
  // between the no-adapter count and the adapter+head count of 9).
  const GpuSpec gpu = V100Spec();
  int vit_fits = 0, moment_fits = 0, moment_no_adapter = 0;
  for (const auto& spec : data::UeaSpecs()) {
    Workload reduced{spec.train_size, spec.test_size, 5};
    Workload full{spec.train_size, spec.test_size, spec.channels};
    if (EstimateRun(VitPaperSpec(), gpu, reduced, TrainRegime::kFullFineTune)
            .verdict == Verdict::kOk) {
      ++vit_fits;
    }
    if (EstimateRun(MomentPaperSpec(), gpu, reduced,
                    TrainRegime::kFullFineTune)
            .verdict == Verdict::kOk) {
      ++moment_fits;
    }
    if (EstimateRun(MomentPaperSpec(), gpu, full, TrainRegime::kFullFineTune)
            .verdict == Verdict::kOk) {
      ++moment_no_adapter;
    }
  }
  EXPECT_EQ(vit_fits, 12);
  EXPECT_EQ(moment_no_adapter, 2);  // Table 1: only Hand and Vowels
  EXPECT_GT(moment_fits, moment_no_adapter);
  EXPECT_LE(moment_fits, 9);
}

// ------------------------- Structural properties ---------------------------

TEST(CostModelTest, EmbedOnceNeverComsOnUeaDatasets) {
  // Streaming inference with batch 1 fits every dataset in 32 GB for both
  // models (Table 2's head-only column has entries for every dataset).
  const GpuSpec gpu = V100Spec();
  for (const auto& spec : data::UeaSpecs()) {
    for (const PaperModelSpec& model : {MomentPaperSpec(), VitPaperSpec()}) {
      Workload w{spec.train_size, spec.test_size, spec.channels};
      auto est =
          EstimateRun(model, gpu, w, TrainRegime::kEmbedOnceHeadOnly);
      EXPECT_NE(est.verdict, Verdict::kCudaOutOfMemory)
          << model.name << " on " << spec.name;
    }
  }
}

TEST(CostModelTest, MemoryMonotoneInChannels) {
  const GpuSpec gpu = V100Spec();
  const PaperModelSpec model = MomentPaperSpec();
  double prev = 0.0;
  for (int64_t d : {1, 5, 20, 100, 500}) {
    Workload w{300, 100, d};
    auto est = EstimateRun(model, gpu, w, TrainRegime::kFullFineTune);
    EXPECT_GT(est.peak_memory_bytes, prev);
    prev = est.peak_memory_bytes;
  }
}

TEST(CostModelTest, TimeMonotoneInTrainSize) {
  const GpuSpec gpu = V100Spec();
  const PaperModelSpec model = VitPaperSpec();
  double prev = 0.0;
  for (int64_t n : {100, 1000, 5000}) {
    Workload w{n, 100, 5};
    auto est = EstimateRun(model, gpu, w, TrainRegime::kFullFineTune);
    EXPECT_GT(est.total_seconds, prev);
    prev = est.total_seconds;
  }
}

TEST(CostModelTest, AdapterReducesSimulatedTimeTenfoldForMoment) {
  // Figure 1's headline: static adapters (embed-once) are ~10x faster than
  // the no-adapter head-only baseline for MOMENT on average.
  const GpuSpec gpu = V100Spec();
  const PaperModelSpec model = MomentPaperSpec();
  double with_adapter = 0.0, without = 0.0;
  for (const auto& spec : data::UeaSpecs()) {
    Workload reduced{spec.train_size, spec.test_size, 5};
    Workload full{spec.train_size, spec.test_size, spec.channels};
    with_adapter +=
        EstimateRun(model, gpu, reduced, TrainRegime::kEmbedOnceHeadOnly)
            .total_seconds;
    without += EstimateRun(model, gpu, full, TrainRegime::kEmbedOnceHeadOnly)
                   .total_seconds;
  }
  EXPECT_GT(without / with_adapter, 5.0);
}

TEST(CostModelTest, FullFineTuneCostsMoreMemoryThanHeadOnly) {
  const GpuSpec gpu = V100Spec();
  Workload w{300, 100, 20};
  for (const PaperModelSpec& model : {MomentPaperSpec(), VitPaperSpec()}) {
    auto full = EstimateRun(model, gpu, w, TrainRegime::kFullFineTune);
    auto head = EstimateRun(model, gpu, w, TrainRegime::kEmbedOnceHeadOnly);
    EXPECT_GT(full.peak_memory_bytes, head.peak_memory_bytes);
    EXPECT_GT(full.optimizer_bytes, 0.0);
    EXPECT_EQ(head.optimizer_bytes, 0.0);
  }
}

TEST(CostModelTest, ComCheckedBeforeTimeout) {
  // A run that can't allocate reports COM even if it would also be slow.
  const GpuSpec gpu = V100Spec();
  Workload w{100000, 100, 2000};
  auto est =
      EstimateRun(MomentPaperSpec(), gpu, w, TrainRegime::kFullFineTune);
  EXPECT_EQ(est.verdict, Verdict::kCudaOutOfMemory);
}

// ----------------- Analytic estimate vs measured allocator -----------------

TEST(MeasuredMemoryTest, AnalyticEstimateMatchesMeasuredEmbedPeak) {
  // One Table-2 configuration run for real: a D' = 5 adapter output feeding
  // the MOMENT-style encoder under the embed-once (head-only) regime. The
  // analytic model predicts transient memory as activation + attention bytes;
  // the BufferPool measures what the run actually held above the resident
  // weights (the baseline). The two use independent accounting — a closed-form
  // token formula vs bucket-capacity telemetry of every live tensor — so we
  // only require agreement within a factor of 4 in either direction: the
  // estimate prices one resident encoder layer, while the real run also holds
  // op scratch, per-op output tensors awaiting their consumer, and
  // power-of-two bucket rounding.
  models::FoundationModelConfig config = models::MomentSmallConfig();
  Rng rng(3);
  models::MomentModel model(config, &rng);

  const int64_t batch = 16;
  const int64_t length = 64;
  const int64_t channels = 5;  // D' fixed to 5 in Table 2
  Tensor x = Tensor::RandN(Shape{batch, length, channels}, &rng);

  const resources::MeasuredMemory measured = resources::MeasurePeak([&] {
    Tensor emb = pipeline::EmbedDataset(model, x, batch);
    ASSERT_EQ(emb.dim(0), batch);
  });
  ASSERT_GT(measured.peak_bytes, 0);
  ASSERT_GT(measured.acquires, 0);
  // The encoder weights were allocated before the measurement began.
  EXPECT_GT(measured.baseline_bytes, 0);

  // The same cost model that produces the paper-scale verdicts, evaluated at
  // the scaled-down CPU model's true dimensions.
  PaperModelSpec spec;
  spec.name = "MOMENT-small";
  spec.params = model.NumParameters();
  spec.d_model = config.d_model;
  spec.num_layers = config.num_layers;
  spec.num_heads = config.num_heads;
  spec.d_hidden = config.d_hidden;
  spec.padded_length = length;
  spec.patch_len = config.patch_len;
  spec.patch_stride = config.patch_stride;
  spec.train_batch = batch;
  spec.infer_batch = batch;
  spec.act_floats_per_token = MomentPaperSpec().act_floats_per_token;
  spec.full_ft_epochs = 1;
  spec.adapter_ft_epochs = 1;

  const Workload workload{batch, batch, channels};
  const auto est = EstimateRun(spec, V100Spec(), workload,
                               TrainRegime::kEmbedOnceHeadOnly);
  const double analytic = est.activation_bytes + est.attention_bytes;
  ASSERT_GT(analytic, 0.0);

  const double measured_bytes = static_cast<double>(measured.peak_bytes);
  EXPECT_GT(measured_bytes, analytic / 4.0)
      << "measured peak " << measured.peak_bytes << " B vs analytic "
      << analytic << " B";
  EXPECT_LT(measured_bytes, analytic * 4.0)
      << "measured peak " << measured.peak_bytes << " B vs analytic "
      << analytic << " B";
}

TEST(VerdictStringTest, Names) {
  EXPECT_STREQ(resources::VerdictString(Verdict::kOk), "OK");
  EXPECT_STREQ(resources::VerdictString(Verdict::kCudaOutOfMemory), "COM");
  EXPECT_STREQ(resources::VerdictString(Verdict::kTimeout), "TO");
  EXPECT_STREQ(resources::TrainRegimeName(TrainRegime::kFullFineTune),
               "full_fine_tune");
}

}  // namespace
}  // namespace tsfm
