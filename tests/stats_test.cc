#include <cmath>

#include <gtest/gtest.h>

#include "stats/stats.h"

namespace tsfm {
namespace {

TEST(MeanStdTest, KnownValues) {
  EXPECT_DOUBLE_EQ(stats::Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
  EXPECT_NEAR(stats::SampleStd({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stats::SampleStd({5}), 0.0);
}

TEST(IncompleteBetaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(stats::RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
}

TEST(IncompleteBetaTest, SymmetryIdentity) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.3, 0.5, 0.8}) {
    EXPECT_NEAR(stats::RegularizedIncompleteBeta(2.0, 5.0, x),
                1.0 - stats::RegularizedIncompleteBeta(5.0, 2.0, 1.0 - x),
                1e-10);
  }
}

TEST(IncompleteBetaTest, UniformCase) {
  // I_x(1, 1) = x.
  for (double x : {0.2, 0.5, 0.9}) {
    EXPECT_NEAR(stats::RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(StudentTTest, KnownQuantiles) {
  // For df=10, t=2.228 is the 97.5% quantile: two-tailed p = 0.05.
  EXPECT_NEAR(stats::StudentTTwoTailedP(2.228, 10), 0.05, 1e-3);
  // t=0 -> p=1.
  EXPECT_NEAR(stats::StudentTTwoTailedP(0.0, 5), 1.0, 1e-10);
  // Symmetric in t.
  EXPECT_NEAR(stats::StudentTTwoTailedP(-2.228, 10),
              stats::StudentTTwoTailedP(2.228, 10), 1e-12);
  // Large |t| -> p ~ 0.
  EXPECT_LT(stats::StudentTTwoTailedP(50.0, 10), 1e-8);
}

TEST(StudentTTest, LargeDfApproachesNormal) {
  // df -> inf: t=1.96 should give p ~ 0.05.
  EXPECT_NEAR(stats::StudentTTwoTailedP(1.96, 100000), 0.05, 1e-3);
}

TEST(WelchTest, IdenticalSamplesGivePOne) {
  auto r = stats::WelchTTest({0.5, 0.5, 0.5}, {0.5, 0.5, 0.5});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->p_value, 1.0);
}

TEST(WelchTest, ClearlyDifferentSamplesGiveSmallP) {
  auto r = stats::WelchTTest({0.90, 0.91, 0.92}, {0.50, 0.51, 0.49});
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_value, 1e-3);
  EXPECT_GT(r->t_statistic, 10.0);
}

TEST(WelchTest, OverlappingSamplesGiveLargeP) {
  auto r = stats::WelchTTest({0.70, 0.75, 0.72}, {0.71, 0.74, 0.73});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.5);
}

TEST(WelchTest, MatchesNumericalReference) {
  // Hand-computed Welch test for {1,2,3,4} vs {2,4,6,8}:
  // t = -sqrt(3), df = 4.41176, p = 0.15158 (numeric tail integration of the
  // t density).
  auto r = stats::WelchTTest({1, 2, 3, 4}, {2, 4, 6, 8});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->t_statistic, -1.7320508, 1e-5);
  EXPECT_NEAR(r->degrees_of_freedom, 4.4117647, 1e-4);
  EXPECT_NEAR(r->p_value, 0.1515804, 1e-5);
}

TEST(WelchTest, RejectsTooFewObservations) {
  EXPECT_FALSE(stats::WelchTTest({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(stats::WelchTTest({1.0, 2.0}, {}).ok());
}

TEST(WelchTest, ZeroVarianceDifferentMeans) {
  auto r = stats::WelchTTest({0.5, 0.5}, {0.7, 0.7});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->p_value, 0.0);
}

TEST(PairwiseMatrixTest, SymmetricWithUnitDiagonal) {
  std::vector<std::vector<double>> methods{
      {0.8, 0.81, 0.79}, {0.80, 0.82, 0.78}, {0.5, 0.52, 0.48}};
  auto m = stats::PairwisePValueMatrix(methods);
  ASSERT_EQ(m.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 1.0);
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
  }
  EXPECT_GT(m[0][1], 0.5);  // similar methods
  EXPECT_LT(m[0][2], 0.01);  // dissimilar methods
}

TEST(PairwiseMatrixTest, DegenerateSampleGivesNaN) {
  std::vector<std::vector<double>> methods{{0.8, 0.81}, {0.5}};
  auto m = stats::PairwisePValueMatrix(methods);
  EXPECT_TRUE(std::isnan(m[0][1]));
  EXPECT_DOUBLE_EQ(m[1][1], 1.0);
}

TEST(RankTest, DescendingWithHighestGettingRankOne) {
  auto ranks = stats::RankDescending({0.3, 0.9, 0.5});
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(RankTest, TiesAveraged) {
  auto ranks = stats::RankDescending({0.5, 0.9, 0.5, 0.1});
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);  // tie for ranks 2 and 3
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(RankTest, AllTied) {
  auto ranks = stats::RankDescending({0.5, 0.5, 0.5});
  for (double r : ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(AverageRanksTest, AggregatesAcrossDatasets) {
  // Method 0 always best, method 2 always worst.
  std::vector<std::vector<double>> per_dataset{
      {0.9, 0.8, 0.2}, {0.95, 0.7, 0.3}, {0.85, 0.6, 0.1}};
  auto avg = stats::AverageRanks(per_dataset);
  EXPECT_DOUBLE_EQ(avg[0], 1.0);
  EXPECT_DOUBLE_EQ(avg[1], 2.0);
  EXPECT_DOUBLE_EQ(avg[2], 3.0);
  EXPECT_TRUE(stats::AverageRanks({}).empty());
}

TEST(FormatTest, MeanStdString) {
  const std::string s = stats::FormatMeanStd({0.5, 0.6, 0.7});
  EXPECT_EQ(s, "0.600+-0.100");
}

// -------------------------- Friedman / Nemenyi -----------------------------

TEST(GammaTest, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(stats::RegularizedLowerGamma(1.0, x), 1.0 - std::exp(-x),
                1e-10);
  }
  EXPECT_DOUBLE_EQ(stats::RegularizedLowerGamma(2.5, 0.0), 0.0);
}

TEST(ChiSquareTest, KnownQuantiles) {
  // Chi-square with 3 df: P(X > 7.815) = 0.05.
  EXPECT_NEAR(stats::ChiSquareUpperTailP(7.815, 3), 0.05, 1e-3);
  // 1 df: P(X > 3.841) = 0.05.
  EXPECT_NEAR(stats::ChiSquareUpperTailP(3.841, 1), 0.05, 1e-3);
  EXPECT_DOUBLE_EQ(stats::ChiSquareUpperTailP(0.0, 4), 1.0);
}

TEST(FriedmanTest, DetectsConsistentWinner) {
  // Method 0 always best across 10 datasets: strongly significant.
  std::vector<std::vector<double>> acc;
  for (int d = 0; d < 10; ++d) {
    acc.push_back({0.9, 0.7, 0.5});
  }
  auto r = stats::FriedmanTest(acc);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_value, 0.001);
  EXPECT_DOUBLE_EQ(r->average_ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(r->average_ranks[2], 3.0);
}

TEST(FriedmanTest, NoSignalGivesLargeP) {
  // Winners rotate evenly: no consistent ranking.
  std::vector<std::vector<double>> acc;
  for (int d = 0; d < 12; ++d) {
    std::vector<double> row{0.5, 0.5, 0.5};
    row[d % 3] = 0.9;
    acc.push_back(row);
  }
  auto r = stats::FriedmanTest(acc);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.5);
}

TEST(FriedmanTest, RejectsDegenerateInput) {
  EXPECT_FALSE(stats::FriedmanTest({}).ok());
  EXPECT_FALSE(stats::FriedmanTest({{0.5, 0.6}}).ok());        // 1 dataset
  EXPECT_FALSE(stats::FriedmanTest({{0.5}, {0.6}}).ok());      // 1 method
  EXPECT_FALSE(stats::FriedmanTest({{0.5, 0.6}, {0.5}}).ok()); // ragged
}

TEST(NemenyiTest, MatchesDemsarTable) {
  // k=5 methods, N=12 datasets: CD = 2.728 * sqrt(5*6 / (6*12)) = 1.7608.
  auto cd = stats::NemenyiCriticalDifference(5, 12);
  ASSERT_TRUE(cd.ok());
  EXPECT_NEAR(*cd, 1.7608, 1e-3);
  // More datasets shrink the CD.
  auto cd_big = stats::NemenyiCriticalDifference(5, 100);
  EXPECT_LT(*cd_big, *cd);
  EXPECT_FALSE(stats::NemenyiCriticalDifference(11, 12).ok());
  EXPECT_FALSE(stats::NemenyiCriticalDifference(5, 1).ok());
}

}  // namespace
}  // namespace tsfm
