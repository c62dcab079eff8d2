// tsfm — command-line front end to the adapter library.
//
//   tsfm datasets
//       List the built-in UEA-like dataset specs.
//   tsfm generate --dataset NATOPS [--seed 0] [--out dir] [--full]
//       Write train/test CSVs of a synthetic dataset.
//   tsfm estimate --dataset NATOPS --model MOMENT --regime full|head|lcomb
//       Paper-scale V100 verdict (COM/TO/OK) with memory and time.
//   tsfm classify --train a.csv --test b.csv [--model moment|vit]
//                 [--adapter PCA|SVD|Rand_Proj|VAR|lcomb|lcomb_top_k|none]
//                 [--dprime 5] [--checkpoint path] [--save prefix]
//       Fine-tune on your own CSV data and report accuracy; --save
//       persists the fitted bundle (<prefix>.adapter when there is an
//       adapter, <prefix>.head, <prefix>.stats) for predict, serve and
//       `pipeline describe`.
//   tsfm predict --prefix saved_prefix --input data.csv [--classes C]
//                 [--model moment|vit] [--adapter PCA|...|none] [--dprime 5]
//                 [--checkpoint path] [--out labels.txt]
//       Load a fitted bundle and print one predicted label per input sample
//       (the offline reference the serve smoke diffs responses against).
//       The bundle fixes the adapter and the class count: predict, serve
//       and `pipeline describe` use the adapter it was saved with (none
//       when there is no <prefix>.adapter) and the class count of
//       <prefix>.head, and an --adapter, --dprime or --classes given to
//       them must match it.
//   tsfm serve --prefix saved_prefix [--classes C] [--port 7070] [--host IP]
//                 [--model moment|vit] [--adapter PCA|...|none] [--dprime 5]
//                 [--checkpoint path] [--name default]
//                 [--max-batch 64] [--max-pending 256]
//                 [--slo-p99-ms MS] [--slo-error-rate FRAC]
//                 [--access-log [path]] [--access-log-sample N]
//       Serve classify/embed traffic over the length-prefixed TCP protocol
//       with dynamic micro-batching: each forward takes every request that
//       queued during the previous one, up to --max-batch samples, with no
//       timed wait. SIGTERM/SIGINT drain gracefully.
//       --slo-* evaluate the rolling 60s window and emit structured
//       breach/recovery events on stderr; --access-log writes one JSON
//       line per request (stderr/stdout/file, every Nth with --access-
//       log-sample).
//   tsfm serve reload --prefix new_prefix [--port 7070] [--host IP]
//       Hot-swap a re-fitted bundle into a running server (zero downtime);
//       its adapter kind must be the served bundle's.
//   tsfm serve stats [--port 7070]   print the server's live metrics
//   tsfm serve stop  [--port 7070]   ask the server to drain and exit
//   tsfm serve-stats [--port 7070] [--follow] [--interval-ms 1000]
//       Scrape a running server's metrics in Prometheus text exposition
//       format (one shot, or repeatedly with --follow).
//   tsfm pipeline describe --prefix saved_prefix [--classes C]
//                 [--model moment|vit] [--adapter PCA|...|none] [--dprime 5]
//                 [--checkpoint path]
//       Load a fitted bundle as predict does and print the stages its
//       session runs: name, in/out shape and fitted-state bytes.
//
// Any flag a command does not list above is an error, as is a value flag
// given without a value, or a numeric flag whose value is not a number in
// range. Observability flags (valid with every command):
//   --trace out.json     record trace spans and write chrome://tracing JSON
//                        (same effect as TSFM_TRACE=out.json)
//   --profile out.txt    record spans and write an aggregated call-tree
//                        profile; .json / .folded (flamegraph) selected by
//                        extension (same as TSFM_PROFILE=out.txt)
//   --metrics [dest]     dump the metrics registry on exit: stderr (default),
//                        stdout, or a file path (TSFM_METRICS does the same)
//   --report [dir]       write a run-report JSON manifest per fine-tune run
//                        into dir (default "reports"; TSFM_RUN_REPORT=dir)
//   --threads N          size of the parallel runtime's thread pool
//                        (same as TSFM_NUM_THREADS=N)
//   --mem-budget BYTES   live resource budget; K/M/G suffixes accepted.
//   --time-budget SECS   Fine-tune runs stop with ResourceExhausted at the
//                        cap; `estimate` judges the paper-scale prediction
//                        against it (defaults: V100 32G / 7200s).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/adapter.h"
#include "data/csv.h"
#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "models/pretrained.h"
#include "pipeline/registry.h"
#include "resources/cost_model.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"

namespace tsfm::cli {
namespace {

using FlagList = std::vector<std::string_view>;

// The flags given to one command, and the command's name for messages.
struct Args {
  std::string command;
  std::map<std::string, std::string> values;
};

// Flags every command accepts: the observability and runtime surface.
constexpr std::string_view kGlobalFlags[] = {
    "trace",   "profile",    "metrics",    "report",
    "threads", "mem-budget", "time-budget"};
// Flags that take no value.
constexpr std::string_view kSwitches[] = {"full", "follow"};

// The value of a flag given without one; null if the flag needs a value.
const char* ImpliedValue(std::string_view name) {
  if (name == "metrics" || name == "access-log") return "stderr";
  if (name == "report") return "reports";
  return nullptr;
}

// The flags each command reads besides the global ones. `serve` is keyed by
// verb, since the server and its client verbs read different flags.
const std::map<std::string, FlagList>& CommandFlags() {
  static const auto* kFlags = new std::map<std::string, FlagList>{
      {"datasets", {}},
      {"generate", {"dataset", "seed", "out", "full"}},
      {"estimate", {"dataset", "model", "regime", "dprime"}},
      {"classify",
       {"train", "test", "model", "checkpoint", "adapter", "dprime", "save"}},
      {"predict",
       {"prefix", "model", "checkpoint", "adapter", "dprime", "classes",
        "input", "out"}},
      {"serve",
       {"prefix", "model", "checkpoint", "adapter", "dprime", "classes",
        "name", "host", "port", "max-batch", "max-pending", "slo-p99-ms",
        "slo-error-rate", "access-log", "access-log-sample"}},
      {"serve reload", {"host", "port", "prefix"}},
      {"serve stats", {"host", "port"}},
      {"serve stop", {"host", "port"}},
      {"serve-stats", {"host", "port", "follow", "interval-ms"}},
      {"pipeline",
       {"model", "checkpoint", "adapter", "dprime", "classes", "prefix"}},
  };
  return *kFlags;
}

template <typename Flags>
bool Contains(const Flags& flags, std::string_view name) {
  return std::find(std::begin(flags), std::end(flags), name) !=
         std::end(flags);
}

// Parses the flags in argv[start..] into `args`. Only global flags and
// `flags` are accepted, and a value flag must be given a value; otherwise
// prints the problem, naming `command`, and returns false.
bool ParseArgs(int argc, char** argv, int start, const std::string& command,
               const FlagList& flags, Args* args) {
  args->command = command;
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument '%s' for '%s'\n", argv[i],
                   command.c_str());
      return false;
    }
    const std::string name = argv[i] + 2;
    if (!Contains(kGlobalFlags, name) && !Contains(flags, name)) {
      std::fprintf(stderr, "unknown flag --%s for '%s'\n", name.c_str(),
                   command.c_str());
      return false;
    }
    const bool next_is_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    if (Contains(kSwitches, name)) {
      args->values[name] = "1";
    } else if (next_is_value) {
      args->values[name] = argv[++i];
    } else if (const char* implied = ImpliedValue(name); implied != nullptr) {
      args->values[name] = implied;
    } else {
      std::fprintf(stderr, "flag --%s for '%s' needs a value\n",
                   name.c_str(), command.c_str());
      return false;
    }
  }
  return true;
}

// "512M" / "2G" / "4096" -> bytes; returns false on parse failure.
bool ParseBytes(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) return false;
  switch (*end) {
    case '\0':
      break;
    case 'k': case 'K': v *= 1024.0; break;
    case 'm': case 'M': v *= 1024.0 * 1024.0; break;
    case 'g': case 'G': v *= 1024.0 * 1024.0 * 1024.0; break;
    default: return false;
  }
  *out = v;
  return true;
}

std::string GetOr(const Args& args, const std::string& key,
                  const std::string& fallback) {
  auto it = args.values.find(key);
  return it == args.values.end() ? fallback : it->second;
}

// Reads the numeric flag `key` into `*out`, or `fallback` when it is absent.
// Text that is not a finite T, has trailing characters or lies outside T's
// range prints "flag --KEY for 'COMMAND' needs a number" and returns false.
template <typename T>
bool GetNumber(const Args& args, const std::string& key, T fallback, T* out) {
  auto it = args.values.find(key);
  if (it == args.values.end()) {
    *out = fallback;
    return true;
  }
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  bool ok = ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(*out);
  if (!ok) {
    std::fprintf(stderr, "flag --%s for '%s' needs a number\n", key.c_str(),
                 args.command.c_str());
  }
  return ok;
}

int CmdDatasets() {
  std::printf("%-24s %6s %6s %9s %7s %8s\n", "name", "train", "test",
              "channels", "length", "classes");
  for (const auto& spec : data::UeaSpecs()) {
    std::printf("%-24s %6lld %6lld %9lld %7lld %8lld\n", spec.name.c_str(),
                static_cast<long long>(spec.train_size),
                static_cast<long long>(spec.test_size),
                static_cast<long long>(spec.channels),
                static_cast<long long>(spec.length),
                static_cast<long long>(spec.classes));
  }
  return 0;
}

int CmdGenerate(const Args& args) {
  auto spec = data::FindUeaSpec(GetOr(args, "dataset", "NATOPS"));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  uint64_t seed = 0;
  if (!GetNumber<uint64_t>(args, "seed", 0, &seed)) return 1;
  const std::string out = GetOr(args, "out", ".");
  const data::GeneratorCaps caps = args.values.count("full")
                                       ? data::GeneratorCaps{}
                                       : data::DefaultCaps();
  data::DatasetPair pair = data::GenerateUeaLike(*spec, seed, caps);
  const std::string train_path = out + "/" + spec->abbrev + "_train.csv";
  const std::string test_path = out + "/" + spec->abbrev + "_test.csv";
  if (auto s = data::SaveCsv(pair.train, train_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (auto s = data::SaveCsv(pair.test, test_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%lld samples) and %s (%lld samples)\n",
              train_path.c_str(), static_cast<long long>(pair.train.size()),
              test_path.c_str(), static_cast<long long>(pair.test.size()));
  return 0;
}

int CmdEstimate(const Args& args) {
  auto spec = data::FindUeaSpec(GetOr(args, "dataset", "NATOPS"));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const std::string model_name = GetOr(args, "model", "MOMENT");
  const resources::PaperModelSpec model =
      model_name == "ViT" || model_name == "vit" ? resources::VitPaperSpec()
                                                 : resources::MomentPaperSpec();
  const std::string regime_name = GetOr(args, "regime", "full");
  resources::TrainRegime regime = resources::TrainRegime::kFullFineTune;
  int64_t channels = spec->channels;
  if (regime_name == "head") {
    regime = resources::TrainRegime::kEmbedOnceHeadOnly;
  } else if (regime_name == "lcomb") {
    regime = resources::TrainRegime::kAdapterPlusHeadLearnable;
    if (!GetNumber<int64_t>(args, "dprime", 5, &channels)) return 1;
  } else if (regime_name != "full") {
    std::fprintf(stderr, "unknown regime '%s' (full|head|lcomb)\n",
                 regime_name.c_str());
    return 1;
  }
  resources::Workload workload{spec->train_size, spec->test_size, channels};
  auto est = resources::EstimateRun(model, resources::V100Spec(), workload,
                                    regime);
  // Judge the prediction against the user's budget; axes left unset fall
  // back to the paper's V100 testbed (32 GB, 2 hours).
  obs::BudgetLimits limits;
  limits.mem_bytes = resources::V100Spec().memory_bytes;
  limits.time_seconds = resources::V100Spec().time_limit_seconds;
  if (obs::BudgetConfigured()) {
    const obs::BudgetLimits user = obs::CurrentBudget();
    if (user.mem_bytes > 0) limits.mem_bytes = user.mem_bytes;
    if (user.time_seconds > 0) limits.time_seconds = user.time_seconds;
  }
  const obs::BudgetVerdict verdict =
      obs::JudgeBudget(limits, est.peak_memory_bytes, est.total_seconds);
  std::printf("%s on %s, %s, D=%lld:\n", model.name.c_str(),
              spec->name.c_str(), resources::TrainRegimeName(regime),
              static_cast<long long>(channels));
  std::printf("  peak memory  %.1f GB (budget: %.1f GB)\n",
              est.peak_memory_bytes / (1ull << 30),
              limits.mem_bytes / (1ull << 30));
  std::printf("  time         %.0f s (budget: %.0f s)\n", est.total_seconds,
              limits.time_seconds);
  std::printf("  verdict      %s\n", resources::VerdictString(est.verdict));
  std::printf("  budget       %s (mem headroom %.1f%%, time headroom "
              "%.1f%%)\n",
              obs::BudgetVerdictName(verdict.kind), verdict.mem_headroom_pct,
              verdict.time_headroom_pct);
  return est.verdict == resources::Verdict::kOk && verdict.fits() ? 0 : 2;
}

// Parses --adapter into the config; returns false on an unknown name.
bool ParseAdapter(const std::string& adapter_name,
                  finetune::ClassifierConfig* config) {
  if (adapter_name == "none") {
    config->adapter.reset();
    return true;
  }
  for (core::AdapterKind kind : core::AllAdapterKinds()) {
    if (adapter_name == core::AdapterKindName(kind)) {
      config->adapter = kind;
      return true;
    }
  }
  return false;
}

int CmdClassify(const Args& args) {
  const std::string train_path = GetOr(args, "train", "");
  const std::string test_path = GetOr(args, "test", "");
  if (train_path.empty() || test_path.empty()) {
    std::fprintf(stderr, "classify needs --train and --test CSV paths\n");
    return 1;
  }
  auto train = data::LoadCsv(train_path, "train");
  if (!train.ok()) {
    std::fprintf(stderr, "train: %s\n", train.status().ToString().c_str());
    return 1;
  }
  auto test = data::LoadCsv(test_path, "test");
  if (!test.ok()) {
    std::fprintf(stderr, "test: %s\n", test.status().ToString().c_str());
    return 1;
  }
  // Splits may disagree on inferred class counts; align them.
  const int64_t classes = std::max(train->num_classes, test->num_classes);
  train->num_classes = classes;
  test->num_classes = classes;

  finetune::ClassifierConfig config;
  const std::string model_name = GetOr(args, "model", "moment");
  config.model_kind = model_name == "vit" || model_name == "ViT"
                          ? models::ModelKind::kVit
                          : models::ModelKind::kMoment;
  config.checkpoint_path =
      GetOr(args, "checkpoint",
            std::string("checkpoints/cli_") + model_name + ".ckpt");
  const std::string adapter_name = GetOr(args, "adapter", "PCA");
  if (!ParseAdapter(adapter_name, &config)) {
    std::fprintf(stderr, "unknown adapter '%s'\n", adapter_name.c_str());
    return 1;
  }
  if (!GetNumber<int64_t>(args, "dprime", 5,
                          &config.adapter_options.out_channels)) {
    return 1;
  }
  config.report_dir = GetOr(args, "report", "");

  auto classifier = finetune::TsfmClassifier::Create(config);
  if (!classifier.ok()) {
    std::fprintf(stderr, "%s\n", classifier.status().ToString().c_str());
    return 1;
  }
  if (auto s = classifier->Fit(*train, &*test); !s.ok()) {
    std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto& result = classifier->last_fit_result();
  std::printf("model=%s adapter=%s", model_name.c_str(), adapter_name.c_str());
  if (config.adapter.has_value()) {
    std::printf(" D'=%lld",
                static_cast<long long>(config.adapter_options.out_channels));
  }
  std::printf("\n");
  std::printf("train accuracy %.4f\n", result.train_accuracy);
  std::printf("test accuracy  %.4f\n", result.test_accuracy);
  std::printf("total seconds  %.2f\n", result.total_seconds);
  if (!classifier->last_report_path().empty()) {
    std::printf("report         %s\n", classifier->last_report_path().c_str());
  }
  if (const std::string save = GetOr(args, "save", ""); !save.empty()) {
    if (auto s = classifier->Save(save); !s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("saved          %s.{%shead,stats}\n", save.c_str(),
                config.adapter.has_value() ? "adapter," : "");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Serving commands.

// Signal-to-drain flag: SIGTERM/SIGINT ask the serve loop for a graceful
// stop (answer everything in flight, then exit 0).
std::atomic<int> g_serve_signal{0};
void OnServeSignal(int sig) {
  g_serve_signal.store(sig, std::memory_order_relaxed);
}

// "none" or the adapter kind's name, for messages.
const char* AdapterLabel(std::optional<core::AdapterKind> kind) {
  return kind.has_value() ? core::AdapterKindName(*kind) : "none";
}

// Loads the frozen model named by the args and installs the fitted bundle
// under `--prefix` into the process registry as `name`. Shared by `predict`,
// `serve` and `pipeline describe`; on success the out-params describe what
// was installed.
int LoadServingSession(
    const Args& args, const std::string& name,
    std::shared_ptr<const models::FoundationModel>* model_out,
    std::optional<core::AdapterKind>* adapter_out, int64_t* classes_out,
    std::shared_ptr<const pipeline::InferenceSession>* session_out) {
  const std::string prefix = GetOr(args, "prefix", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "needs --prefix (a bundle saved by classify "
                         "--save)\n");
    return 1;
  }
  finetune::ClassifierConfig config;
  const std::string model_name = GetOr(args, "model", "moment");
  config.model_kind = model_name == "vit" || model_name == "ViT"
                          ? models::ModelKind::kVit
                          : models::ModelKind::kMoment;
  if (config.model_kind == models::ModelKind::kVit) {
    config.model_config = models::VitSmallConfig();
  }
  config.checkpoint_path =
      GetOr(args, "checkpoint",
            std::string("checkpoints/cli_") + model_name + ".ckpt");
  int64_t given_classes = 0;
  int64_t dprime = 0;
  if (!GetNumber<int64_t>(args, "classes", 0, &given_classes) ||
      !GetNumber<int64_t>(args, "dprime", 0, &dprime)) {
    return 1;
  }
  // The head records its class count; a --classes that disagrees is
  // refused like a wrong --adapter or --dprime.
  auto classes = pipeline::SavedNumClasses(prefix);
  if (!classes.ok()) {
    std::fprintf(stderr, "%s\n", classes.status().ToString().c_str());
    return 1;
  }
  if (args.values.count("classes") && given_classes != *classes) {
    std::fprintf(stderr, "--classes %lld does not match the bundle at %s, "
                         "whose head has %lld classes\n",
                 static_cast<long long>(given_classes), prefix.c_str(),
                 static_cast<long long>(*classes));
    return 1;
  }
  // The bundle records its adapter; an --adapter that disagrees is a wrong
  // bundle or a wrong command line, as a wrong --dprime is below.
  auto saved = pipeline::SavedAdapterKind(prefix);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.status().ToString().c_str());
    return 1;
  }
  config.adapter = *saved;
  if (const std::string adapter_name = GetOr(args, "adapter", "");
      !adapter_name.empty()) {
    if (!ParseAdapter(adapter_name, &config)) {
      std::fprintf(stderr, "unknown adapter '%s'\n", adapter_name.c_str());
      return 1;
    }
    if (config.adapter != *saved) {
      std::fprintf(stderr, "--adapter %s does not match the bundle at %s, "
                           "saved with adapter %s\n",
                   adapter_name.c_str(), prefix.c_str(), AdapterLabel(*saved));
      return 1;
    }
  }
  auto model = models::LoadOrPretrain(config.model_kind, config.model_config,
                                      config.pretrain, config.checkpoint_path);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const models::FoundationModel> frozen = *model;
  auto session = pipeline::Registry::Instance().LoadAndInstall(
      name, prefix, frozen, config.adapter, *classes,
      pipeline::SessionOptions{});
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  const core::Adapter* fitted = (*session)->adapter();
  if (args.values.count("dprime") && fitted != nullptr &&
      dprime != fitted->output_channels()) {
    std::fprintf(stderr, "--dprime %lld does not match the bundle at %s, "
                         "whose adapter has D'=%lld\n",
                 static_cast<long long>(dprime), prefix.c_str(),
                 static_cast<long long>(fitted->output_channels()));
    return 1;
  }
  *model_out = std::move(frozen);
  *adapter_out = config.adapter;
  *classes_out = *classes;
  *session_out = *session;
  return 0;
}

// `tsfm predict`: offline per-sample labels from a fitted bundle — the
// byte-for-byte reference that served responses are diffed against.
int CmdPredict(const Args& args) {
  const std::string input = GetOr(args, "input", "");
  if (input.empty()) {
    std::fprintf(stderr, "predict needs --input CSV path\n");
    return 1;
  }
  auto ds = data::LoadCsv(input, "predict");
  if (!ds.ok()) {
    std::fprintf(stderr, "input: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const models::FoundationModel> model;
  std::optional<core::AdapterKind> adapter;
  int64_t classes = 0;
  std::shared_ptr<const pipeline::InferenceSession> session;
  if (int rc = LoadServingSession(args, "predict", &model, &adapter,
                                  &classes, &session);
      rc != 0) {
    return rc;
  }
  auto labels = session->PredictBatch(ds->x);
  if (!labels.ok()) {
    std::fprintf(stderr, "%s\n", labels.status().ToString().c_str());
    return 1;
  }
  const std::string out_path = GetOr(args, "out", "");
  if (out_path.empty()) {
    for (int64_t label : *labels) {
      std::printf("%lld\n", static_cast<long long>(label));
    }
    return 0;
  }
  std::ofstream os(out_path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (int64_t label : *labels) {
    os << label << "\n";
  }
  std::printf("wrote %zu labels to %s\n", labels->size(), out_path.c_str());
  return 0;
}

// `tsfm serve` (no verb): run the inference server until SIGTERM/SIGINT or
// a client shutdown request, then drain and exit 0.
int CmdServeRun(const Args& args) {
  const std::string name = GetOr(args, "name", "default");
  std::shared_ptr<const models::FoundationModel> model;
  std::optional<core::AdapterKind> adapter;
  int64_t classes = 0;
  std::shared_ptr<const pipeline::InferenceSession> session;
  if (int rc = LoadServingSession(args, name, &model, &adapter, &classes,
                                  &session);
      rc != 0) {
    return rc;
  }

  serve::ServerOptions options;
  options.host = GetOr(args, "host", "127.0.0.1");
  uint16_t port = 0;
  if (!GetNumber<uint16_t>(args, "port", 7070, &port) ||
      !GetNumber<int64_t>(args, "max-batch", 64, &options.batch.max_batch) ||
      !GetNumber<int64_t>(args, "max-pending", 256, &options.max_pending) ||
      !GetNumber(args, "slo-p99-ms", 0.0, &options.slo.p99_ms) ||
      !GetNumber(args, "slo-error-rate", 0.0, &options.slo.error_rate) ||
      !GetNumber<int64_t>(args, "access-log-sample", 1,
                          &options.access_log.sample)) {
    return 1;
  }
  options.port = port;
  options.session_name = name;
  options.access_log.path = GetOr(args, "access-log", "");
  // `tsfm serve reload` hot-swaps a re-fitted bundle with the same model,
  // adapter kind, and class count into the serving slot.
  options.reload_fn = [model, adapter, classes,
                       name](const std::string& prefix) -> Status {
    TSFM_ASSIGN_OR_RETURN(std::optional<core::AdapterKind> saved,
                          pipeline::SavedAdapterKind(prefix));
    if (saved != adapter) {
      return Status::InvalidArgument(
          std::string("the bundle at ") + prefix + " was saved with adapter " +
          AdapterLabel(saved) + ", but the served bundle has adapter " +
          AdapterLabel(adapter));
    }
    auto swapped = pipeline::Registry::Instance().LoadAndInstall(
        name, prefix, model, adapter, classes, pipeline::SessionOptions{});
    return swapped.ok() ? Status::OK() : swapped.status();
  };

  auto server = serve::Server::Start(&pipeline::Registry::Instance(),
                                     std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::signal(SIGTERM, OnServeSignal);
  std::signal(SIGINT, OnServeSignal);
  std::printf("tsfm serve: listening on %s:%d (session '%s', "
              "max batch %lld, max pending %lld)\n",
              (*server)->options().host.c_str(), (*server)->port(),
              name.c_str(),
              static_cast<long long>((*server)->options().batch.max_batch),
              static_cast<long long>((*server)->options().max_pending));
  std::fflush(stdout);

  while (g_serve_signal.load(std::memory_order_relaxed) == 0 &&
         !(*server)->ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "tsfm serve: draining\n");
  (*server)->Stop();
  const auto snapshot = obs::Registry::Instance().TakeSnapshot();
  const auto metric = [&snapshot](const char* key) {
    auto it = snapshot.find(key);
    return it == snapshot.end() ? 0.0 : it->second;
  };
  std::fprintf(stderr,
               "tsfm serve: drained (%.0f requests, %.0f responses, "
               "%.0f shed, %.0f batches)\n",
               metric("serve.requests"), metric("serve.responses"),
               metric("serve.shed"), metric("serve.batches"));
  return 0;
}

// `tsfm serve reload|stats|stop` (Main has checked the verb): thin client
// verbs against a running server.
int CmdServeClient(const std::string& verb, const Args& args) {
  const std::string host = GetOr(args, "host", "127.0.0.1");
  uint16_t port = 0;
  if (!GetNumber<uint16_t>(args, "port", 7070, &port)) return 1;
  auto client = serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (verb == "reload") {
    const std::string prefix = GetOr(args, "prefix", "");
    if (prefix.empty()) {
      std::fprintf(stderr, "serve reload needs --prefix\n");
      return 1;
    }
    auto session_name = client->Reload(prefix);
    if (!session_name.ok()) {
      std::fprintf(stderr, "%s\n",
                   session_name.status().ToString().c_str());
      return 1;
    }
    std::printf("reloaded %s into session '%s'\n", prefix.c_str(),
                session_name->c_str());
    return 0;
  }
  if (verb == "stats") {
    auto stats = client->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::fputs(stats->c_str(), stdout);
    return 0;
  }
  if (auto s = client->Shutdown(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("server draining\n");
  return 0;
}

// `tsfm serve-stats`: scrape a running server's metrics in Prometheus text
// exposition format; --follow re-scrapes every --interval-ms until killed.
int CmdServeStats(const Args& args) {
  const std::string host = GetOr(args, "host", "127.0.0.1");
  uint16_t port = 0;
  int interval_ms = 0;
  if (!GetNumber<uint16_t>(args, "port", 7070, &port) ||
      !GetNumber(args, "interval-ms", 1000, &interval_ms)) {
    return 1;
  }
  const bool follow = GetOr(args, "follow", "") == "1";
  auto client = serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  do {
    auto text = client->MetricsText();
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    std::fflush(stdout);
    if (follow) {
      std::printf("\n");  // blank line between scrapes for `--follow` eyes
      std::this_thread::sleep_for(std::chrono::milliseconds(
          interval_ms > 0 ? interval_ms : 1000));
    }
  } while (follow && g_serve_signal.load(std::memory_order_relaxed) == 0);
  return 0;
}

// `tsfm pipeline describe`: loads the bundle under --prefix as predict and
// serve do, and prints the stages its session runs.
int CmdPipeline(const std::string& verb, const Args& args) {
  if (verb != "describe") {
    std::fprintf(stderr, "unknown pipeline verb '%s' (describe)\n",
                 verb.c_str());
    return 1;
  }
  std::shared_ptr<const models::FoundationModel> model;
  std::optional<core::AdapterKind> adapter;
  int64_t classes = 0;
  std::shared_ptr<const pipeline::InferenceSession> session;
  if (int rc = LoadServingSession(args, "cli", &model, &adapter, &classes,
                                  &session);
      rc != 0) {
    return rc;
  }
  std::printf("fitted pipeline at %s (model=%s, E=%lld, C=%lld):\n",
              GetOr(args, "prefix", "").c_str(),
              GetOr(args, "model", "moment").c_str(),
              static_cast<long long>(model->embedding_dim()),
              static_cast<long long>(classes));
  std::printf("%-12s %-28s %12s\n", "stage", "shape", "state bytes");
  for (const auto& d : session->Describe()) {
    std::printf("%-12s %-28s %12lld\n", d.name.c_str(), d.signature.c_str(),
                static_cast<long long>(d.state_bytes));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tsfm <datasets|generate|estimate|classify|predict|"
               "serve|serve-stats|pipeline> [--args]\n"
               "       [--trace out.json] [--profile out.txt|.json|.folded]\n"
               "       [--metrics [dest]] [--report [dir]] [--threads N]\n"
               "       [--mem-budget BYTES[K|M|G]] [--time-budget SECONDS]\n"
               "predict, serve and pipeline describe take the adapter and\n"
               "class count from the bundle at --prefix\n"
               "see the header of tools/tsfm_cli.cc for details\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const bool has_verb =
      (command == "serve" || command == "pipeline") &&
      argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
  const std::string verb = has_verb ? argv[2] : "";
  const auto flags = CommandFlags().find(
      command == "serve" && has_verb ? command + " " + verb : command);
  if (flags == CommandFlags().end()) {
    if (command != "serve") return Usage();
    std::fprintf(stderr, "unknown serve verb '%s' (reload|stats|stop)\n",
                 verb.c_str());
    return 1;
  }
  Args args;
  if (!ParseArgs(argc, argv, has_verb ? 3 : 2, flags->first, flags->second,
                 &args)) {
    return 1;
  }

  if (args.values.count("threads")) {
    int threads = 0;
    if (!GetNumber(args, "threads", 0, &threads)) return 1;
    runtime::SetNumThreads(threads);
  }

  obs::BudgetLimits budget;
  bool have_budget = false;
  if (const std::string mem = GetOr(args, "mem-budget", ""); !mem.empty()) {
    if (!ParseBytes(mem, &budget.mem_bytes)) {
      std::fprintf(stderr, "cannot parse --mem-budget '%s'\n", mem.c_str());
      return 1;
    }
    have_budget = true;
  }
  if (args.values.count("time-budget")) {
    if (!GetNumber(args, "time-budget", 0.0, &budget.time_seconds)) return 1;
    if (budget.time_seconds < 0) {
      std::fprintf(stderr, "--time-budget must not be negative\n");
      return 1;
    }
    have_budget = true;
  }
  if (have_budget) obs::SetBudget(budget);

  const std::string trace_path = GetOr(args, "trace", "");
  const std::string profile_path = GetOr(args, "profile", "");
  if (!trace_path.empty() || !profile_path.empty()) obs::EnableTracing();

  int rc;
  if (command == "datasets") {
    rc = CmdDatasets();
  } else if (command == "generate") {
    rc = CmdGenerate(args);
  } else if (command == "estimate") {
    rc = CmdEstimate(args);
  } else if (command == "classify") {
    rc = CmdClassify(args);
  } else if (command == "predict") {
    rc = CmdPredict(args);
  } else if (command == "serve") {
    rc = verb.empty() ? CmdServeRun(args) : CmdServeClient(verb, args);
  } else if (command == "serve-stats") {
    std::signal(SIGTERM, OnServeSignal);
    std::signal(SIGINT, OnServeSignal);
    rc = CmdServeStats(args);
  } else {  // pipeline
    rc = CmdPipeline(has_verb ? verb : "describe", args);
  }

  if (!trace_path.empty()) {
    if (obs::WriteTrace(trace_path)) {
      std::fprintf(stderr, "trace: wrote %lld spans to %s\n",
                   static_cast<long long>(obs::TraceEventCount()),
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path.c_str());
    }
  }
  if (!profile_path.empty()) {
    const obs::Profile profile = obs::Profile::FromCurrentTrace();
    if (obs::WriteProfile(profile, profile_path)) {
      std::fprintf(stderr, "profile: wrote %zu call-tree nodes to %s\n",
                   profile.nodes().size(), profile_path.c_str());
    } else {
      std::fprintf(stderr, "profile: cannot write %s\n", profile_path.c_str());
    }
  }
  const std::string metrics_dest = GetOr(args, "metrics", "");
  if (!metrics_dest.empty()) {
    const std::string text = obs::Registry::Instance().RenderText();
    if (metrics_dest == "stdout") {
      std::fputs(text.c_str(), stdout);
    } else if (metrics_dest == "stderr") {
      std::fputs(text.c_str(), stderr);
    } else {
      std::ofstream os(metrics_dest, std::ios::trunc);
      if (os) {
        os << text;
      } else {
        std::fprintf(stderr, "metrics: cannot write %s\n",
                     metrics_dest.c_str());
      }
    }
  }
  return rc;
}

}  // namespace
}  // namespace tsfm::cli

int main(int argc, char** argv) { return tsfm::cli::Main(argc, argv); }
