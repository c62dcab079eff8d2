// Tests for run reports, the budget monitor, and the metrics-timeline
// sampler (src/obs/run_report, src/obs/budget): JSON manifest round-trip,
// budget verdict math and COM-before-TO ordering, the live monitor's
// trip/latch/rearm behaviour, and the sampler's JSONL output.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "obs/budget.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

obs::RunReport SampleReport() {
  obs::RunReport report;
  report.command = "classify";
  report.model = "MOMENT";
  report.adapter = "PCA";
  report.strategy = "adapter_plus_head";
  report.dprime = 5;
  report.options = {{"head_epochs", "60"},
                    {"head_lr", "0.05"},
                    {"normalize", "true"},
                    {"dataset", "\"NATOPS\""}};
  obs::RunReportEpoch e;
  e.epoch = 0;
  e.phase = "head";
  e.loss = 1.5;
  e.accuracy = 0.25;
  e.seconds = 0.125;
  e.pool_live_bytes = 4096;
  report.epochs.push_back(e);
  report.mem_baseline_bytes = 1024;
  report.mem_peak_bytes = 8192;
  report.mem_acquires = 100;
  report.mem_pool_hits = 99;
  report.mem_heap_allocs = 1;
  report.train_accuracy = 0.9;
  report.test_accuracy = 0.8;
  report.final_loss = 0.2;
  report.adapter_fit_seconds = 0.01;
  report.train_seconds = 1.5;
  report.total_seconds = 2.0;
  report.has_estimate = true;
  report.estimate_model = "MOMENT";
  report.estimate_regime = "embed_once_head_only";
  report.estimate_verdict = "OK";
  report.estimate_channels = 5;
  report.estimate_values = {{"peak_memory_bytes", 2e9},
                            {"total_seconds", 120.0}};
  report.budget = obs::JudgeBudget(obs::BudgetLimits{}, 9216, 2.0);
  return report;
}

TEST(RunReport, JsonCarriesEverySection) {
  const std::string json = RenderRunReportJson(SampleReport());
  for (const char* key :
       {"\"schema_version\"", "\"run\"", "\"options\"", "\"epochs\"",
        "\"measured_memory\"", "\"result\"", "\"estimate\"", "\"budget\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"command\":\"classify\""), std::string::npos);
  EXPECT_NE(json.find("\"dprime\":5"), std::string::npos);
  // Pre-rendered option literals are emitted verbatim (typed, unquoted
  // numbers and booleans, quoted strings).
  EXPECT_NE(json.find("\"head_epochs\":60"), std::string::npos);
  EXPECT_NE(json.find("\"normalize\":true"), std::string::npos);
  EXPECT_NE(json.find("\"dataset\":\"NATOPS\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"head\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"fits\""), std::string::npos);
  // Balanced delimiters (the writer builds JSON by hand).
  int64_t braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(RunReport, NoEstimateRendersNull) {
  obs::RunReport report = SampleReport();
  report.has_estimate = false;
  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("\"estimate\":null"), std::string::npos);
}

TEST(RunReport, WriteRunReportAllocatesFreshFiles) {
  const std::string dir = ::testing::TempDir() + "/run_report_test_dir";
  const auto first = obs::WriteRunReport(SampleReport(), dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto second = obs::WriteRunReport(SampleReport(), dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(*first, *second);

  std::ifstream is(*first);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_NE(buf.str().find("\"schema_version\":3"), std::string::npos);
  std::remove(first->c_str());
  std::remove(second->c_str());
}

TEST(BudgetVerdict, FitsWhenUnderOrUnbounded) {
  // No limits: everything fits with full headroom.
  obs::BudgetVerdict v = obs::JudgeBudget(obs::BudgetLimits{}, 1e12, 1e6);
  EXPECT_TRUE(v.fits());
  EXPECT_DOUBLE_EQ(v.mem_headroom_pct, 100.0);
  EXPECT_DOUBLE_EQ(v.time_headroom_pct, 100.0);

  obs::BudgetLimits limits;
  limits.mem_bytes = 1000;
  limits.time_seconds = 100;
  v = obs::JudgeBudget(limits, 250, 50);
  EXPECT_TRUE(v.fits());
  EXPECT_DOUBLE_EQ(v.mem_headroom_pct, 75.0);
  EXPECT_DOUBLE_EQ(v.time_headroom_pct, 50.0);
  EXPECT_STREQ(obs::BudgetVerdictName(v.kind), "fits");
}

TEST(BudgetVerdict, OverBudgetAxesAndComBeforeTo) {
  obs::BudgetLimits limits;
  limits.mem_bytes = 1000;
  limits.time_seconds = 100;

  obs::BudgetVerdict v = obs::JudgeBudget(limits, 2000, 50);
  EXPECT_EQ(v.kind, obs::BudgetVerdict::Kind::kExceedsMemory);
  EXPECT_DOUBLE_EQ(v.mem_headroom_pct, -100.0);
  EXPECT_STREQ(obs::BudgetVerdictName(v.kind), "exceeds_memory");

  v = obs::JudgeBudget(limits, 500, 150);
  EXPECT_EQ(v.kind, obs::BudgetVerdict::Kind::kExceedsTime);
  EXPECT_DOUBLE_EQ(v.time_headroom_pct, -50.0);
  EXPECT_STREQ(obs::BudgetVerdictName(v.kind), "exceeds_time");

  // Both axes blown: memory wins, the cost model's COM-before-TO order.
  v = obs::JudgeBudget(limits, 2000, 150);
  EXPECT_EQ(v.kind, obs::BudgetVerdict::Kind::kExceedsMemory);
}

TEST(BudgetMonitor, UnconfiguredCheckIsOk) {
  obs::ClearBudget();
  EXPECT_FALSE(obs::BudgetConfigured());
  EXPECT_TRUE(obs::CheckBudget("run_report_test").ok());
  EXPECT_FALSE(obs::BudgetTripped());
}

TEST(BudgetMonitor, MemoryCapTripsLatchesAndRearms) {
  obs::BudgetLimits limits;
  limits.mem_bytes = 1;  // any allocation blows this
  obs::SetBudget(limits);
  ASSERT_TRUE(obs::BudgetConfigured());
  EXPECT_DOUBLE_EQ(obs::CurrentBudget().mem_bytes, 1.0);

  // Allocate through the pool so pool.peak_live_bytes rises above 1 byte.
  Rng rng(5);
  Tensor t = Tensor::RandN({64, 64}, &rng);
  (void)SumAll(t);

  const Status first = obs::CheckBudget("run_report_test.loop");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(first.message().find("memory budget exceeded"),
            std::string::npos);
  EXPECT_NE(first.message().find("run_report_test.loop"), std::string::npos);
  EXPECT_TRUE(obs::BudgetTripped());

  // Latched: later polls from any loop return the same diagnosis.
  const Status second = obs::CheckBudget("somewhere.else");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.message(), first.message());

  // A new run window rearms the monitor but keeps the (still tiny) limits.
  obs::BeginBudgetRun();
  EXPECT_FALSE(obs::BudgetTripped());

  obs::ClearBudget();
  EXPECT_TRUE(obs::CheckBudget("run_report_test").ok());
}

TEST(BudgetMonitor, TimeCapMentionsElapsedAndSpans) {
  // Record some spans so the diagnosis can name the hottest ones.
  obs::EnableTracing();
  obs::ClearTrace();
  {
    TSFM_TRACE_SPAN("run_report_test.hot_span");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  obs::BudgetLimits limits;
  limits.time_seconds = 1e-9;
  obs::SetBudget(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Status s = obs::CheckBudget("run_report_test.timer");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("time budget exceeded"), std::string::npos);
  EXPECT_NE(s.message().find("run_report_test.hot_span"), std::string::npos);
  obs::ClearBudget();
  obs::DisableTracing();
  obs::ClearTrace();
}

TEST(MetricsTimeline, SamplerWritesJsonlLines) {
  const std::string path = ::testing::TempDir() + "/run_report_timeline.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::StartMetricsTimeline(path, /*interval_ms=*/20).ok());
  // A second sampler must be refused while the first runs.
  EXPECT_FALSE(obs::StartMetricsTimeline(path, 20).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  obs::StopMetricsTimeline();

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.rfind("{\"t_ms\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  // At least the t=0 baseline and the final flush sample.
  EXPECT_GE(lines, 2);
  std::remove(path.c_str());

  // Stopped: the sampler can be started again.
  ASSERT_TRUE(obs::StartMetricsTimeline(path, 20).ok());
  obs::StopMetricsTimeline();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsfm
