#include "obs/run_report.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

namespace tsfm::obs {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

void AppendKeyString(std::string* out, const char* key,
                     const std::string& value) {
  *out += "\"";
  *out += key;
  *out += "\":\"";
  AppendEscaped(out, value);
  *out += "\"";
}

void AppendKeyNumber(std::string* out, const char* key, double value) {
  char buf[64];
  // %.17g round-trips doubles; integral values render without a fraction.
  if (value == static_cast<int64_t>(value) &&
      std::abs(value) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, value);
  }
  *out += buf;
}

}  // namespace

std::string RenderRunReportJson(const RunReport& r) {
  std::string out = "{\n";
  out += "\"schema_version\":2,\n\"run\":{";
  AppendKeyString(&out, "command", r.command);
  out += ",";
  AppendKeyString(&out, "model", r.model);
  out += ",";
  AppendKeyString(&out, "adapter", r.adapter);
  out += ",";
  AppendKeyString(&out, "strategy", r.strategy);
  out += ",";
  AppendKeyNumber(&out, "dprime", static_cast<double>(r.dprime));
  out += "},\n";

  out += "\"options\":{";
  bool first = true;
  for (const auto& [key, literal] : r.options) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(&out, key);
    out += "\":";
    out += literal;  // pre-rendered JSON literal, emitted verbatim
  }
  out += "},\n";

  out += "\"epochs\":[";
  first = true;
  for (const RunReportEpoch& e : r.epochs) {
    if (!first) out += ",";
    first = false;
    out += "\n{";
    AppendKeyNumber(&out, "epoch", static_cast<double>(e.epoch));
    out += ",";
    AppendKeyString(&out, "phase", e.phase);
    out += ",";
    AppendKeyNumber(&out, "loss", e.loss);
    out += ",";
    AppendKeyNumber(&out, "accuracy", e.accuracy);
    out += ",";
    AppendKeyNumber(&out, "seconds", e.seconds);
    out += ",";
    AppendKeyNumber(&out, "pool_live_bytes", e.pool_live_bytes);
    out += "}";
  }
  out += "\n],\n";

  out += "\"stages\":[";
  first = true;
  for (const RunReportStage& s : r.stages) {
    if (!first) out += ",";
    first = false;
    out += "\n{";
    AppendKeyString(&out, "stage", s.stage);
    out += ",";
    AppendKeyNumber(&out, "seconds", s.seconds);
    out += "}";
  }
  out += "\n],\n";

  out += "\"measured_memory\":{";
  AppendKeyNumber(&out, "baseline_bytes", r.mem_baseline_bytes);
  out += ",";
  AppendKeyNumber(&out, "peak_bytes", r.mem_peak_bytes);
  out += ",";
  AppendKeyNumber(&out, "acquires", r.mem_acquires);
  out += ",";
  AppendKeyNumber(&out, "pool_hits", r.mem_pool_hits);
  out += ",";
  AppendKeyNumber(&out, "heap_allocs", r.mem_heap_allocs);
  out += "},\n";

  out += "\"execution\":{";
  AppendKeyString(&out, "embed_mode", r.embed_mode);
  out += "},\n";

  out += "\"result\":{";
  AppendKeyNumber(&out, "train_accuracy", r.train_accuracy);
  out += ",";
  AppendKeyNumber(&out, "test_accuracy", r.test_accuracy);
  out += ",";
  AppendKeyNumber(&out, "final_loss", r.final_loss);
  out += ",";
  AppendKeyNumber(&out, "adapter_fit_seconds", r.adapter_fit_seconds);
  out += ",";
  AppendKeyNumber(&out, "train_seconds", r.train_seconds);
  out += ",";
  AppendKeyNumber(&out, "total_seconds", r.total_seconds);
  out += "},\n";

  out += "\"estimate\":";
  if (!r.has_estimate) {
    out += "null,\n";
  } else {
    out += "{";
    AppendKeyString(&out, "model", r.estimate_model);
    out += ",";
    AppendKeyString(&out, "regime", r.estimate_regime);
    out += ",";
    AppendKeyNumber(&out, "channels", static_cast<double>(r.estimate_channels));
    for (const auto& [key, value] : r.estimate_values) {
      out += ",";
      AppendKeyNumber(&out, key.c_str(), value);
    }
    out += ",";
    AppendKeyString(&out, "verdict", r.estimate_verdict);
    out += "},\n";
  }

  out += "\"budget\":{";
  AppendKeyString(&out, "verdict", BudgetVerdictName(r.budget.kind));
  out += ",";
  AppendKeyNumber(&out, "mem_budget_bytes", r.budget.mem_budget_bytes);
  out += ",";
  AppendKeyNumber(&out, "time_budget_seconds", r.budget.time_budget_seconds);
  out += ",";
  AppendKeyNumber(&out, "mem_used_bytes", r.budget.mem_used_bytes);
  out += ",";
  AppendKeyNumber(&out, "time_used_seconds", r.budget.time_used_seconds);
  out += ",";
  AppendKeyNumber(&out, "mem_headroom_pct", r.budget.mem_headroom_pct);
  out += ",";
  AppendKeyNumber(&out, "time_headroom_pct", r.budget.time_headroom_pct);
  out += "}\n}\n";
  return out;
}

Result<std::string> WriteRunReport(const RunReport& report,
                                   const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("run-report directory is empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create report directory " + dir + ": " +
                           ec.message());
  }
  // Reports from one process number sequentially; across processes the first
  // free slot wins, so parallel experiment runs in one directory coexist.
  static std::atomic<int> next_index{0};
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const int index = next_index.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream name;
    name << dir << "/run_report_" << index << ".json";
    const std::string path = name.str();
    if (std::filesystem::exists(path, ec)) continue;
    std::ofstream os(path, std::ios::trunc);
    if (!os) return Status::IoError("cannot write " + path);
    os << RenderRunReportJson(report);
    if (!os) return Status::IoError("write failed: " + path);
    return path;
  }
  return Status::IoError("no free run_report_<n>.json slot in " + dir);
}

std::string RunReportDirFromEnv() {
  const char* env = std::getenv("TSFM_RUN_REPORT");
  return env == nullptr ? std::string() : std::string(env);
}

namespace {

// The metrics-timeline sampler. Leaked (like the registry) so late atexit
// dumps never race its destructor.
struct TimelineState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool stop_requested = false;
};

TimelineState& Timeline() {
  static TimelineState* s = new TimelineState();
  return *s;
}

void WriteTimelineSample(std::ofstream* os,
                         std::chrono::steady_clock::time_point start) {
  const double t_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  std::string line = "{";
  AppendKeyNumber(&line, "t_ms", t_ms);
  for (const auto& [name, value] : Registry::Instance().TakeSnapshot()) {
    line += ",";
    AppendKeyNumber(&line, name.c_str(), value);
  }
  line += "}\n";
  *os << line;
  os->flush();
}

}  // namespace

Status StartMetricsTimeline(const std::string& path, int interval_ms) {
  if (interval_ms <= 0) {
    return Status::InvalidArgument("timeline interval must be positive");
  }
  TimelineState& s = Timeline();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.running) {
    return Status::FailedPrecondition("metrics timeline already running");
  }
  auto os = std::make_shared<std::ofstream>(path, std::ios::trunc);
  if (!*os) return Status::IoError("cannot write metrics timeline " + path);
  s.stop_requested = false;
  s.running = true;
  s.worker = std::thread([os, interval_ms] {
    TimelineState& st = Timeline();
    const auto start = std::chrono::steady_clock::now();
    WriteTimelineSample(os.get(), start);  // t=0 baseline sample
    std::unique_lock<std::mutex> lock(st.mu);
    while (!st.cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [&] { return st.stop_requested; })) {
      lock.unlock();
      WriteTimelineSample(os.get(), start);
      lock.lock();
    }
    lock.unlock();
    WriteTimelineSample(os.get(), start);  // final sample on shutdown
  });
  return Status::OK();
}

void StopMetricsTimeline() {
  TimelineState& s = Timeline();
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.running) return;
    s.stop_requested = true;
    s.running = false;
    worker = std::move(s.worker);
  }
  s.cv.notify_all();
  if (worker.joinable()) worker.join();
}

void InstallMetricsTimelineFromEnv() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  const char* env = std::getenv("TSFM_METRICS_TIMELINE");
  if (env == nullptr || env[0] == '\0') return;
  std::string spec(env);
  int interval_ms = 200;
  const size_t comma = spec.rfind(',');
  if (comma != std::string::npos) {
    const int parsed = std::atoi(spec.c_str() + comma + 1);
    if (parsed > 0) {
      interval_ms = parsed;
      spec = spec.substr(0, comma);
    }
  }
  const Status status = StartMetricsTimeline(spec, interval_ms);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics timeline: %s\n", status.ToString().c_str());
    return;
  }
  std::atexit(StopMetricsTimeline);
}

}  // namespace tsfm::obs
