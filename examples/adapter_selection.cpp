// Scenario: which adapter should I use for my dataset? This example runs the
// paper's full adapter zoo on one dataset over several seeds, prints a
// ranking, and uses Welch t-tests to say whether the winner is *actually*
// statistically distinguishable from the rest (the paper's answer: usually
// not — pick the cheapest).
//
// Build & run:  ./build/examples/adapter_selection [dataset]

#include <cstdio>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "models/pretrained.h"
#include "stats/stats.h"

int main(int argc, char** argv) {
  using namespace tsfm;

  const std::string dataset_name = argc > 1 ? argv[1] : "JapaneseVowels";
  auto spec = data::FindUeaSpec(dataset_name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::fprintf(stderr, "known datasets:\n");
    for (const auto& s : data::UeaSpecs()) {
      std::fprintf(stderr, "  %s (%s)\n", s.name.c_str(), s.abbrev.c_str());
    }
    return 1;
  }

  models::PretrainOptions pretrain;
  auto model = models::LoadOrPretrain(models::ModelKind::kVit,
                                      models::VitSmallConfig(), pretrain,
                                      "checkpoints/quickstart_vit.ckpt");
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }

  constexpr int kSeeds = 3;
  // The paper's six adapters.
  const std::vector<core::AdapterKind>& kinds = core::AllAdapterKinds();
  std::vector<std::vector<double>> accuracies(kinds.size());
  std::vector<double> mean_seconds(kinds.size(), 0.0);

  for (int seed = 0; seed < kSeeds; ++seed) {
    data::DatasetPair pair = data::GenerateUeaLike(*spec, seed);
    for (size_t k = 0; k < kinds.size(); ++k) {
      core::AdapterOptions options;
      options.out_channels = 5;
      options.seed = static_cast<uint64_t>(seed) * 31 + 7;
      auto adapter = core::CreateAdapter(kinds[k], options);
      finetune::FineTuneOptions ft;
      ft.strategy = finetune::Strategy::kAdapterPlusHead;
      ft.seed = static_cast<uint64_t>(seed);
      auto result = finetune::FineTune(model->get(), adapter.get(), pair.train,
                                       pair.test, ft);
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", core::AdapterKindName(kinds[k]),
                     result.status().ToString().c_str());
        return 1;
      }
      accuracies[k].push_back(result->test_accuracy);
      mean_seconds[k] += result->total_seconds / kSeeds;
    }
  }

  // Ranking by mean accuracy.
  std::vector<double> means;
  for (const auto& a : accuracies) means.push_back(stats::Mean(a));
  const std::vector<double> ranks = stats::RankDescending(means);
  std::printf("%s, D'=5, %d seeds:\n\n", spec->name.c_str(), kSeeds);
  std::printf("  %-12s %-16s %-10s %s\n", "adapter", "accuracy", "rank",
              "avg seconds");
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::printf("  %-12s %-16s %-10.1f %.2f\n",
                core::AdapterKindName(kinds[k]),
                stats::FormatMeanStd(accuracies[k]).c_str(), ranks[k],
                mean_seconds[k]);
  }

  // Is the winner statistically distinguishable from the others?
  size_t best = 0;
  for (size_t k = 1; k < kinds.size(); ++k) {
    if (means[k] > means[best]) best = k;
  }
  std::printf("\nWelch t-test of %s against the rest:\n",
              core::AdapterKindName(kinds[best]));
  bool any_significant = false;
  for (size_t k = 0; k < kinds.size(); ++k) {
    if (k == best) continue;
    auto test = stats::WelchTTest(accuracies[best], accuracies[k]);
    if (!test.ok()) continue;
    std::printf("  vs %-12s p = %.3f%s\n", core::AdapterKindName(kinds[k]),
                test->p_value, test->p_value < 0.05 ? "  (significant)" : "");
    if (test->p_value < 0.05) any_significant = true;
  }
  std::printf("\n%s\n",
              any_significant
                  ? "Some differences are significant on this dataset."
                  : "No statistically significant winner - prefer the "
                    "cheapest adapter (the paper's conclusion).");
  return 0;
}
