// perfbench_worker: the compiled half of the benchmark. run.py starts it once
// per step of a run; each mode prints one JSON object on stdout as its last
// line.
//
//   data        generate the workload's data (input preparation)
//   pretrain    pretrain the frozen checkpoint (input preparation)
//   fit         what a user runs to fit: load the checkpoint, Create, Fit,
//               then save the bundle and write the offline labels of the
//               request pool (what served answers must equal)
//   serve       start `tsfm serve` on the saved bundle: cold starts, then
//               rounds of open-loop light and mid phases and a closed-loop
//               saturated phase from one process with at most --conns
//               connections; between rounds it waits for a line on stdin
//   trace-fit   replay of the fit through the public stage calls, with a
//               span around each call and program counters read around it
//   trace-serve replay of serving in-process: protocol encode/decode, a
//               MicroBatcher over the loaded session, and per-step timings
//   host-probe  lateness of timed sleeps on the idle host
//
// Data comes from data::GenerateUeaLike with --data-seed, written once by the
// data mode; --seed picks the request schedules. The program only ever sees
// the generated inputs.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "core/adapter.h"
#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "loadgen.h"
#include "memory/buffer_pool.h"
#include "models/pretrained.h"
#include "obs/metrics.h"
#include "optim/optim.h"
#include "pipeline/registry.h"
#include "pipeline/stages.h"
#include "runtime/thread_pool.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "tensor/ops.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tsfm::Result;
using tsfm::Status;
using tsfm::Tensor;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The `tsfm serve` this worker has running, if any: Die() stops it, so a
// failed run leaves no process behind.
pid_t g_server_pid = -1;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_worker: %s\n", what.c_str());
  if (g_server_pid > 0) {
    ::kill(g_server_pid, SIGKILL);
    ::waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(1);
}

template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Arguments and JSON output.

using Args = std::map<std::string, std::string>;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " + std::string(argv[i]));
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

std::string Arg(const Args& a, const std::string& key) {
  auto it = a.find(key);
  if (it == a.end()) Die("missing --" + key);
  return it->second;
}

int64_t IntArg(const Args& a, const std::string& key) {
  return std::stoll(Arg(a, key));
}

double NumArg(const Args& a, const std::string& key) {
  return std::stod(Arg(a, key));
}

class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", vs[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + raw;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }
  void Print() const { std::printf("%s\n", str().c_str()); }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Workload inputs: generated data, model configuration, request pool.

constexpr int64_t kMaxPool = 256;

tsfm::data::DatasetPair Generate(const Args& a) {
  const auto spec = Check(tsfm::data::FindUeaSpec(Arg(a, "dataset")), "dataset");
  tsfm::data::GeneratorCaps caps;
  caps.max_train = IntArg(a, "train-cap");
  caps.max_test = IntArg(a, "test-cap");
  caps.max_length = IntArg(a, "length-cap");
  caps.max_channels = 0;
  return tsfm::data::GenerateUeaLike(spec, std::stoull(Arg(a, "data-seed")), caps);
}

// The generated data is input preparation, like the checkpoint: the `data`
// mode writes it to --data once, every other mode reads it back. (Generating
// pca-wide's 2000 series of 200 channels takes ~1.4 s; reading them, ~0.1 s.)
void WriteSplit(std::ostream& os, const tsfm::data::TimeSeriesDataset& ds) {
  const int64_t head[5] = {ds.size(), ds.length(), ds.channels(), ds.num_classes,
                           static_cast<int64_t>(ds.name.size())};
  os.write(reinterpret_cast<const char*>(head), sizeof(head));
  os.write(ds.name.data(), static_cast<std::streamsize>(ds.name.size()));
  os.write(reinterpret_cast<const char*>(ds.x.data()),
           static_cast<std::streamsize>(ds.x.numel() * sizeof(float)));
  os.write(reinterpret_cast<const char*>(ds.y.data()),
           static_cast<std::streamsize>(ds.y.size() * sizeof(int64_t)));
}

tsfm::data::TimeSeriesDataset ReadSplit(std::istream& is) {
  int64_t head[5] = {};
  is.read(reinterpret_cast<char*>(head), sizeof(head));
  constexpr int64_t kMaxDim = int64_t{1} << 20;
  for (int64_t v : head) {
    if (!is || v < 0 || v > kMaxDim) Die("corrupt data file");
  }
  if (head[0] * head[1] * head[2] > (int64_t{1} << 31)) Die("corrupt data file");
  tsfm::data::TimeSeriesDataset ds;
  ds.num_classes = head[3];
  ds.name.resize(static_cast<size_t>(head[4]));
  is.read(ds.name.data(), head[4]);
  ds.x = Tensor::Empty({head[0], head[1], head[2]});
  is.read(reinterpret_cast<char*>(ds.x.mutable_data()),
          static_cast<std::streamsize>(ds.x.numel() * sizeof(float)));
  ds.y.resize(static_cast<size_t>(head[0]));
  is.read(reinterpret_cast<char*>(ds.y.data()),
          static_cast<std::streamsize>(ds.y.size() * sizeof(int64_t)));
  return ds;
}

int WriteData(const Args& a) {
  const tsfm::data::DatasetPair data = Generate(a);
  const std::string path = Arg(a, "data");
  {
    std::ofstream os(path + ".tmp", std::ios::binary | std::ios::trunc);
    WriteSplit(os, data.train);
    WriteSplit(os, data.test);
    if (!os.flush()) Die("cannot write " + path);
  }
  std::filesystem::rename(path + ".tmp", path);
  Json().Str("data", path).Print();
  return 0;
}

tsfm::data::DatasetPair ReadData(const Args& a) {
  std::ifstream is(Arg(a, "data"), std::ios::binary);
  tsfm::data::DatasetPair data;
  data.train = ReadSplit(is);
  data.test = ReadSplit(is);
  if (!is) Die("cannot read " + Arg(a, "data"));
  Check(tsfm::data::Validate(data.train), "train data");
  Check(tsfm::data::Validate(data.test), "test data");
  return data;
}

std::optional<tsfm::core::AdapterKind> AdapterArg(const Args& a) {
  const std::string name = Arg(a, "adapter");
  if (name == "none") return std::nullopt;
  for (auto kind : tsfm::core::AllAdapterKinds()) {
    if (name == tsfm::core::AdapterKindName(kind)) return kind;
  }
  Die("unknown adapter " + name);
}

tsfm::finetune::ClassifierConfig Config(const Args& a) {
  tsfm::finetune::ClassifierConfig config;
  config.checkpoint_path = Arg(a, "checkpoint");
  config.adapter = AdapterArg(a);
  return config;
}

// First kMaxPool test samples, one (1, T, D) tensor each.
std::vector<Tensor> RequestPool(const tsfm::data::TimeSeriesDataset& test) {
  std::vector<Tensor> pool;
  const int64_t n = std::min<int64_t>(kMaxPool, test.size());
  for (int64_t i = 0; i < n; ++i) pool.push_back(tsfm::Slice(test.x, 0, i, i + 1));
  return pool;
}

std::vector<int64_t> ReadLabels(const std::string& path) {
  std::ifstream is(path);
  std::vector<int64_t> labels;
  for (int64_t v; is >> v;) labels.push_back(v);
  if (labels.empty()) Die("no labels in " + path);
  return labels;
}

int64_t ProcStatusKb(const std::string& path, const std::string& key) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(key + ":", 0) == 0) return std::stoll(line.substr(key.size() + 1));
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around the public calls it makes: name,
// start, end, parent and request id. Kept in memory, written at the end.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

class Tracer {
 public:
  int64_t Begin(const std::string& name, uint64_t request_id = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, Now(), 0, Top(), request_id});
    Stack().push_back(id);
    return id;
  }
  void End(int64_t id) {
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
    auto& stack = Stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }
  double DurationS(int64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Span& s = spans_[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  /// Total seconds of the spans named `name`: those whose parent is `parent`,
  /// or all of them when `parent` is kAnyParent.
  static constexpr int64_t kAnyParent = -2;
  double Seconds(const std::string& name, int64_t parent = kAnyParent) const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name && (parent == kAnyParent || s.parent == parent)) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }
  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
         << "}";
    }
    os << "\n]\n";
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }
  static int64_t Top() { return Stack().empty() ? -1 : Stack().back(); }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, uint64_t request_id = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request_id)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Program counters read as deltas around calls.
struct Counters {
  double matmul_flops = 0;
  double pf_calls = 0;
  double pf_inline = 0;
  double eigen_calls = 0;
  double qr_calls = 0;
  tsfm::memory::PoolStats pool;

  static Counters Read() {
    auto& reg = tsfm::obs::Registry::Instance();
    auto c = [&reg](const char* name) {
      return static_cast<double>(reg.GetCounter(name)->value());
    };
    Counters out;
    out.matmul_flops = c("tensor.matmul_flops");
    out.pf_calls = c("runtime.parallel_for.calls");
    out.pf_inline = c("runtime.parallel_for.inline");
    out.eigen_calls = c("linalg.eigen_calls");
    out.qr_calls = c("linalg.qr_calls");
    out.pool = tsfm::memory::BufferPool::Instance().Snapshot();
    return out;
  }
};

// ---------------------------------------------------------------------------
// pretrain / fit

int Pretrain(const Args& a) {
  const auto config = Config(a);
  Check(tsfm::models::LoadOrPretrain(config.model_kind, config.model_config,
                                     config.pretrain, config.checkpoint_path),
        "pretrain");
  Json().Str("checkpoint", config.checkpoint_path).Print();
  return 0;
}

int Fit(const Args& a) {
  // --fit 0 is a cold start of set-up alone, so it skips the data.
  const bool fit = IntArg(a, "fit") != 0;
  const tsfm::data::DatasetPair data = fit ? ReadData(a) : tsfm::data::DatasetPair{};
  const auto config = Config(a);
  Json out;
  const auto t0 = Clock::now();
  auto classifier = Check(tsfm::finetune::TsfmClassifier::Create(config), "create");
  const auto t1 = Clock::now();
  out.Num("load_create_s", Seconds(t0, t1));
  if (!fit) {
    out.Print();
    return 0;
  }
  Check(classifier.Fit(data.train, &data.test), "fit");
  const auto t2 = Clock::now();
  out.Num("fit_s", Seconds(t1, t2));
  out.Num("test_accuracy", classifier.last_fit_result().test_accuracy);
  out.Num("vmhwm_kb", static_cast<double>(ProcStatusKb("/proc/self/status", "VmHWM")));
  out.Num("classes", static_cast<double>(data.train.num_classes));

  const auto labels_it = a.find("labels");
  if (labels_it != a.end()) {
    // Offline reference: the bundle as saved, loaded back the way the server
    // loads it, predicting the request pool in one PredictBatch.
    const std::string prefix = Arg(a, "bundle");
    Check(classifier.Save(prefix), "save");
    auto model = Check(tsfm::models::LoadOrPretrain(
                           config.model_kind, config.model_config,
                           config.pretrain, config.checkpoint_path),
                       "load checkpoint");
    auto session = Check(
        tsfm::pipeline::Registry().LoadAndInstall(
            "offline", prefix, model, config.adapter, data.train.num_classes,
            tsfm::pipeline::SessionOptions{}),
        "load bundle");
    const std::vector<Tensor> pool = RequestPool(data.test);
    const auto labels = Check(session->PredictBatch(tsfm::Concat(pool, 0)), "predict");
    std::ofstream os(labels_it->second, std::ios::trunc);
    for (int64_t label : labels) os << label << "\n";
    out.Num("pool", static_cast<double>(labels.size()));
  }
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// serve: the real server process, driven over TCP.

struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;
  int port = 0;
};

ServerProc SpawnServer(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) Die("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  std::vector<char*> args;
  for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
  args.push_back(nullptr);
  ServerProc p;
  const int rc = posix_spawn(&p.pid, argv[0].c_str(), &actions, nullptr,
                             args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) Die("cannot start " + argv[0]);
  g_server_pid = p.pid;
  p.out_fd = fds[0];
  // The server prints "... listening on HOST:PORT (...)" once it accepts.
  std::string line;
  while (true) {
    pollfd pfd{p.out_fd, POLLIN, 0};
    char ch = 0;
    if (::poll(&pfd, 1, 60000) <= 0 || ::read(p.out_fd, &ch, 1) != 1) {
      Die("tsfm serve did not come up");
    }
    if (ch == '\n') break;
    line += ch;
  }
  const size_t at = line.find("listening on ");
  const size_t colon = line.find(':', at == std::string::npos ? 0 : at + 13);
  if (at == std::string::npos || colon == std::string::npos) Die("unexpected: " + line);
  p.port = std::atoi(line.c_str() + colon + 1);
  return p;
}

void StopServer(ServerProc* p) {
  bool asked = false;
  if (auto client = tsfm::serve::Client::Connect("127.0.0.1", p->port); client.ok()) {
    asked = client->Shutdown().ok();
  }
  if (!asked) ::kill(p->pid, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (::waitpid(p->pid, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(p->pid, SIGKILL);
      ::waitpid(p->pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(p->out_fd);
  p->pid = -1;
  g_server_pid = -1;
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields after "(comm)": state is field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Voluntary + involuntary context switches summed over the process's live
// threads.
double ProcCtxSwitches(pid_t pid) {
  double total = 0;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    const std::string status = task.path().string() + "/status";
    total += static_cast<double>(ProcStatusKb(status, "voluntary_ctxt_switches") +
                                 ProcStatusKb(status, "nonvoluntary_ctxt_switches"));
  }
  return total;
}

// Unlabelled series of the server's Prometheus scrape (the metrics verb).
std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  auto client = Check(tsfm::serve::Client::Connect("127.0.0.1", port), "connect");
  const std::string text = Check(client.MetricsText(), "metrics");
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const size_t sp = line.find(' ');
    if (sp != std::string::npos) out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
  return out;
}

void AppendRecords(const std::string& phase, int64_t round, const std::vector<Record>& records,
                   std::string* csv) {
  char buf[160];
  for (const Record& r : records) {
    std::snprintf(buf, sizeof(buf), "%s,%lld,%lld,%lld,%lld,%d,%d,%s\n", phase.c_str(),
                  static_cast<long long>(round), static_cast<long long>(r.due_ns), static_cast<long long>(r.send_ns),
                  static_cast<long long>(r.done_ns), r.sample, r.conn,
                  OutcomeName(r.outcome));
    *csv += buf;
  }
}

std::vector<std::string> EncodedPool(const tsfm::data::TimeSeriesDataset& test) {
  std::vector<std::string> payloads;
  for (const Tensor& x : RequestPool(test)) payloads.push_back(tsfm::serve::EncodeTensorPayload(x));
  return payloads;
}

int Serve(const Args& a) {
  const tsfm::data::DatasetPair data = ReadData(a);
  const std::vector<std::string> payloads = EncodedPool(data.test);
  const std::vector<int64_t> labels = ReadLabels(Arg(a, "labels"));
  if (labels.size() != payloads.size()) Die("label count does not match the request pool");
  const uint64_t seed = std::stoull(Arg(a, "seed"));
  const int conns = static_cast<int>(IntArg(a, "conns"));
  const std::vector<std::string> argv = {
      Arg(a, "tsfm"),   "serve",       "--prefix",  Arg(a, "bundle"),
      "--classes",      Arg(a, "classes"), "--checkpoint", Arg(a, "checkpoint"),
      "--adapter",      Arg(a, "adapter"), "--port",    "0"};
  Json out;

  // Cold starts: spawn until the first correct answer, then stop.
  std::vector<double> cold;
  for (int64_t i = 0; i < IntArg(a, "cold"); ++i) {
    const auto t0 = Clock::now();
    ServerProc p = SpawnServer(argv);
    auto client = Check(tsfm::serve::Client::Connect("127.0.0.1", p.port), "connect");
    const Tensor first = Check(tsfm::serve::DecodeTensorPayload(payloads[0], 3), "decode");
    const auto got = Check(client.Classify(first), "first request");
    const auto t1 = Clock::now();
    if (got.size() != 1 || got[0] != labels[0]) Die("cold server answered a wrong label");
    cold.push_back(Seconds(t0, t1));
    StopServer(&p);
  }
  out.Nums("cold_start_s", cold);

  ServerProc server = SpawnServer(argv);
  Target target;
  target.port = server.port;
  target.payloads = &payloads;
  target.labels = &labels;
  std::string csv = "phase,round,due_ns,send_ns,done_ns,sample,conn,outcome\n";
  const auto pool = static_cast<int32_t>(payloads.size());

  AppendRecords("warm", 0, RunClosedLoop(target, conns, NumArg(a, "warm-s"), seed + 11), &csv);

  // The phases take turns in short rounds, so a slow spell of the host
  // lands on every phase instead of on whichever one it overlaps.
  const double light_s = NumArg(a, "light-s");
  const double mid_s = NumArg(a, "mid-s");
  const double sat_s = NumArg(a, "sat-s");
  const std::vector<std::string> counters = {"tsfm_runtime_tasks_submitted_total",
                                             "tsfm_serve_batches_total"};
  double light_n = 0, light_ctx = 0, sat_cpu = 0;
  std::map<std::string, double> light_delta;
  for (int64_t r = 0; r < IntArg(a, "rounds"); ++r) {
    const uint64_t round_seed = seed * 7 + 10 * static_cast<uint64_t>(r);
    if (r > 0) {
      // Between rounds the caller runs other steps of the run (a fit) while
      // the server idles: it is told {"round": r}, and answers with a line.
      std::printf("{\"round\":%lld}\n", static_cast<long long>(r));
      std::fflush(stdout);
      std::string line;
      if (!std::getline(std::cin, line)) Die("stdin closed between rounds");
      AppendRecords("warm", r,
                    RunClosedLoop(target, conns, NumArg(a, "rewarm-s"), round_seed + 4), &csv);
    }
    const double ctx0 = ProcCtxSwitches(server.pid);
    const auto m0 = ScrapeMetrics(server.port);
    const auto light = RunOpenLoop(
        target, PoissonSchedule(NumArg(a, "light-rps"), light_s, pool, round_seed + 1), conns);
    light_ctx += ProcCtxSwitches(server.pid) - ctx0;
    const auto m1 = ScrapeMetrics(server.port);
    for (const std::string& name : counters) {
      const auto b = m1.find(name);
      const auto e = m0.find(name);
      light_delta[name] += (b == m1.end() ? 0.0 : b->second) - (e == m0.end() ? 0.0 : e->second);
    }
    light_n += static_cast<double>(light.size());
    AppendRecords("light", r, light, &csv);
    if (mid_s > 0) {
      AppendRecords("mid", r,
                    RunOpenLoop(target,
                                PoissonSchedule(NumArg(a, "mid-rps"), mid_s, pool, round_seed + 2),
                                conns),
                    &csv);
    }
    if (sat_s > 0) {
      const double cpu0 = ProcCpuSeconds(server.pid);
      const auto sat = RunClosedLoop(target, conns, sat_s, round_seed + 3);
      sat_cpu += ProcCpuSeconds(server.pid) - cpu0;
      AppendRecords("sat", r, sat, &csv);
    }
  }
  light_n = std::max(1.0, light_n);
  out.Num("light_ctx_switches_per_req", light_ctx / light_n);
  out.Num("light_tasks_per_req", light_delta[counters[0]] / light_n);
  out.Num("light_batches", light_delta[counters[1]]);
  out.Num("sat_cpu_s", sat_cpu);
  out.Num("server_vmhwm_kb",
          static_cast<double>(ProcStatusKb("/proc/" + std::to_string(server.pid) + "/status", "VmHWM")));
  StopServer(&server);
  std::ofstream(Arg(a, "records"), std::ios::trunc) << csv;
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// trace-fit: the fit replayed through the calls FineTuneWithHead makes.

// Mirrors TsfmClassifier::Fit's fresh head and FineTuneWithHead's stream
// setup, so the replay computes exactly what the untraced fit computes.
struct FitState {
  std::shared_ptr<tsfm::models::FoundationModel> model;
  std::shared_ptr<tsfm::core::Adapter> adapter;
  std::shared_ptr<tsfm::models::ClassificationHead> head;
  std::shared_ptr<tsfm::pipeline::NormalizeStage> norm;
};

double Accuracy(const Tensor& logits, const tsfm::data::TimeSeriesDataset& ds) {
  return tsfm::data::Accuracy(tsfm::ArgMaxLast(logits), ds);
}

// Counter deltas attributed to single layers of the fit.
struct LayerCounts {
  double eigen_calls = 0;  // during the adapter fit
  double qr_calls = 0;
  double embed_flops = 0;  // matmul flops of the no-grad embed passes
};

// The adapter fit under its span, with the linalg calls it made.
void FitAdapter(Tracer* tr, LayerCounts* counts, const std::function<void()>& fit) {
  Scope s(tr, "core.adapter_fit");
  const Counters before = Counters::Read();
  fit();
  const Counters after = Counters::Read();
  counts->eigen_calls += after.eigen_calls - before.eigen_calls;
  counts->qr_calls += after.qr_calls - before.qr_calls;
}

// Embed-once path: Fit and Apply on the four stages, train then test.
double ReplayEmbedOnce(Tracer* tr, const FitState& st,
                       const tsfm::finetune::FineTuneOptions& opt,
                       const tsfm::data::DatasetPair& data, tsfm::Rng* rng,
                       LayerCounts* counts) {
  namespace pl = tsfm::pipeline;
  auto adapt = st.adapter ? std::make_shared<pl::AdaptStage>(st.adapter) : nullptr;
  auto embed = std::make_shared<pl::EmbedStage>(st.model);
  auto head = std::make_shared<pl::HeadStage>(
      st.head, st.model->embedding_dim(), data.train.num_classes,
      pl::HeadTrainOptions{opt.head_epochs, opt.head_lr, opt.weight_decay});
  pl::ExecutionContext ctx;
  ctx.batch_size = opt.batch_size;
  ctx.seed = opt.seed;
  ctx.rng = rng;
  ctx.allow_embed_cache = true;
  ctx.cache_salt = std::string(tsfm::finetune::StrategyName(opt.strategy)) + "/" +
                   (st.adapter ? st.adapter->name() : "no_adapter");
  ctx.cache_stats = &st.norm->stats();
  pl::ExecutionContext train_ctx = ctx;
  train_ctx.seed = opt.seed + 1;
  pl::ExecutionContext test_ctx = ctx;
  test_ctx.seed = opt.seed + 2;

  auto run = [&](const Tensor& raw, const pl::ExecutionContext& c, bool fit) {
    Tensor x;
    {
      Scope s(tr, "pipeline.normalize");
      if (fit) Check(st.norm->Fit(raw, data.train.y, c), "normalize fit");
      x = Check(st.norm->Apply(raw, c), "normalize");
    }
    if (fit) {
      FitAdapter(tr, counts, [&] {
        if (adapt) Check(adapt->Fit(x, data.train.y, c), "adapter fit");
      });
    }
    {
      Scope s(tr, "core.adapter_transform");
      if (adapt) x = Check(adapt->Apply(x, c), "adapter transform");
    }
    Tensor e;
    {
      Scope s(tr, "models.embed");
      const double f0 = Counters::Read().matmul_flops;
      if (fit) Check(embed->Fit(x, data.train.y, c), "embed fit");
      e = Check(embed->Apply(x, c), "embed");
      counts->embed_flops += Counters::Read().matmul_flops - f0;
    }
    return e;
  };
  const Tensor e_train = run(data.train.x, train_ctx, true);
  {
    Scope s(tr, "pipeline.head_fit");
    Check(head->Fit(e_train, data.train.y, train_ctx), "head fit");
    (void)Check(head->Apply(e_train, train_ctx), "head");
  }
  const Tensor e_test = run(data.test.x, test_ctx, false);
  double acc = 0;
  {
    Scope s(tr, "pipeline.eval");
    acc = Accuracy(Check(head->Apply(e_test, test_ctx), "head"), data.test);
  }
  // This path has no joint loop; its rows are the spans of skipped steps.
  for (const char* skipped : {"autograd.joint_forward", "autograd.joint_backward", "optim.step"}) {
    Scope s(tr, skipped);
  }
  return acc;
}

// Joint path (learnable adapter): the loop's public calls, step by step.
double ReplayJoint(Tracer* tr, const FitState& st,
                   const tsfm::finetune::FineTuneOptions& opt,
                   const tsfm::data::DatasetPair& data, tsfm::Rng* rng,
                   LayerCounts* counts) {
  namespace ag = tsfm::ag;
  namespace pl = tsfm::pipeline;
  pl::ExecutionContext ctx;
  ctx.batch_size = opt.batch_size;
  ctx.seed = opt.seed;
  ctx.rng = rng;
  tsfm::data::TimeSeriesDataset train_n = data.train;
  tsfm::data::TimeSeriesDataset test_n = data.test;
  {
    Scope s(tr, "pipeline.normalize");
    Check(st.norm->Fit(data.train.x, data.train.y, ctx), "normalize fit");
    train_n.x = Check(st.norm->Apply(data.train.x, ctx), "normalize");
    test_n.x = Check(st.norm->Apply(data.test.x, ctx), "normalize");
  }
  auto adapt = std::make_shared<pl::AdaptStage>(st.adapter);
  FitAdapter(tr, counts, [&] { Check(adapt->Fit(train_n.x, train_n.y, ctx), "adapter fit"); });
  // This path has no embed-once pass and no separate head training (the
  // head trains in the joint loop); their rows are the spans of skipped steps.
  for (const char* skipped : {"models.embed", "pipeline.head_fit"}) {
    Scope s(tr, skipped);
  }
  tsfm::models::ClassificationHead& head = *st.head;
  std::vector<ag::Var> slow = st.adapter->TrainableParameters();
  std::vector<ag::Var> trainable = head.Parameters();
  trainable.insert(trainable.end(), slow.begin(), slow.end());
  tsfm::optim::AdamW head_opt(head.Parameters(), opt.head_lr, 0.9f, 0.999f, 1e-8f,
                              opt.weight_decay);
  tsfm::optim::AdamW slow_opt(slow, opt.joint_lr, 0.9f, 0.999f, 1e-8f, opt.weight_decay);
  for (int64_t epoch = 0; epoch < opt.joint_epochs; ++epoch) {
    for (const auto& idx : tsfm::data::MakeBatches(train_n.size(), opt.batch_size, rng)) {
      ag::Var loss;
      {
        Scope s(tr, "autograd.joint_forward");
        Tensor xb = tsfm::TakeRows(train_n.x, idx);
        std::vector<int64_t> yb;
        for (int64_t i : idx) yb.push_back(train_n.y[static_cast<size_t>(i)]);
        tsfm::nn::ForwardContext fwd{/*training=*/true, rng};
        ag::Var input;
        {
          Scope t(tr, "core.adapter_transform");
          input = st.adapter->TransformVar(ag::Constant(xb));
        }
        ag::Var emb = st.model->EncodeChannels(input, fwd);
        loss = ag::CrossEntropy(head.Forward(emb), yb);
      }
      {
        Scope s(tr, "autograd.joint_backward");
        loss.Backward();
      }
      {
        Scope s(tr, "optim.step");
        tsfm::optim::ClipGradNorm(trainable, 5.0f);
        head_opt.Step();
        slow_opt.Step();
        head_opt.ZeroGrad();
        slow_opt.ZeroGrad();
        st.model->ZeroGrad();
        head.ZeroGrad();
      }
    }
  }
  // Evaluation exactly as the joint path runs it: batches in parallel.
  auto evaluate = [&](const tsfm::data::TimeSeriesDataset& ds) {
    const int64_t bs = std::max<int64_t>(1, opt.batch_size);
    const int64_t nb = (ds.size() + bs - 1) / bs;
    std::vector<std::vector<int64_t>> preds(static_cast<size_t>(nb));
    tsfm::runtime::ParallelFor(0, nb, 1, [&](int64_t lo, int64_t hi) {
      ag::NoGradGuard guard;
      tsfm::Rng eval_rng(opt.seed + 99);
      tsfm::nn::ForwardContext fwd{/*training=*/false, &eval_rng};
      for (int64_t b = lo; b < hi; ++b) {
        Tensor xb = tsfm::Slice(ds.x, 0, b * bs, std::min(ds.size(), (b + 1) * bs));
        ag::Var emb = st.model->EncodeChannels(st.adapter->TransformVar(ag::Constant(xb)), fwd);
        preds[static_cast<size_t>(b)] = tsfm::ArgMaxLast(head.Forward(emb).value());
      }
    });
    std::vector<int64_t> all;
    for (const auto& p : preds) all.insert(all.end(), p.begin(), p.end());
    return tsfm::data::Accuracy(all, ds);
  };
  Scope s(tr, "pipeline.eval");
  (void)evaluate(train_n);
  return evaluate(test_n);
}

const char* const kFitRows[] = {
    "pipeline.normalize", "core.adapter_fit",        "core.adapter_transform",
    "models.embed",       "pipeline.head_fit",       "pipeline.eval",
    "autograd.joint_forward", "autograd.joint_backward", "optim.step"};

int TraceFit(const Args& a) {
  const tsfm::data::DatasetPair data = ReadData(a);
  const auto config = Config(a);
  const tsfm::finetune::FineTuneOptions& opt = config.finetune;
  Tracer tracer;
  Json out;

  FitState st;
  {
    Scope s(&tracer, "io.checkpoint_load");
    st.model = Check(tsfm::models::LoadOrPretrain(config.model_kind, config.model_config,
                                                  config.pretrain, config.checkpoint_path),
                     "load checkpoint");
  }
  if (config.adapter) {
    st.adapter = tsfm::core::CreateAdapter(*config.adapter, config.adapter_options);
  }
  tsfm::Rng head_rng(opt.seed * 2654435761ULL + 13);
  st.head = std::make_shared<tsfm::models::ClassificationHead>(
      st.model->embedding_dim(), data.train.num_classes, &head_rng);
  st.norm = std::make_shared<tsfm::pipeline::NormalizeStage>();
  tsfm::Rng rng(opt.seed ^ 0x51A7E5ULL);
  (void)rng.Fork();

  tsfm::obs::Registry::Instance().ResetPeaks();
  const Counters c0 = Counters::Read();
  LayerCounts layer;
  double acc = 0;
  int64_t root = 0;
  {
    Scope fit(&tracer, "fit");
    root = fit.id();
    acc = st.adapter && st.adapter->IsLearnable()
              ? ReplayJoint(&tracer, st, opt, data, &rng, &layer)
              : ReplayEmbedOnce(&tracer, st, opt, data, &rng, &layer);
  }
  const Counters c1 = Counters::Read();
  const double fit_s = tracer.DurationS(root);
  // Rows are the root's children; a layer's metric counts its spans at any
  // depth (lcomb's adapter transform runs inside the joint forward).
  double rows = 0;
  for (const char* row : kFitRows) {
    rows += tracer.Seconds(row, root);
    out.Num(std::string(row) + "_s", tracer.Seconds(row));
  }
  const double embed_s = tracer.Seconds("models.embed");
  out.Num("traced_fit_s", fit_s);
  out.Num("rows_s", rows);
  out.Num("test_accuracy", acc);
  out.Num("linalg.eigen_calls", layer.eigen_calls);
  out.Num("linalg.qr_calls", layer.qr_calls);
  out.Num("tensor.matmul_gflop", (c1.matmul_flops - c0.matmul_flops) * 1e-9);
  out.Num("models.embed_gflops", embed_s > 0 ? layer.embed_flops * 1e-9 / embed_s : 0);
  out.Num("runtime.parallel_for_calls", c1.pf_calls - c0.pf_calls);
  out.Num("runtime.parallel_for_inline_frac",
          (c1.pf_inline - c0.pf_inline) / std::max(1.0, c1.pf_calls - c0.pf_calls));
  out.Num("memory.pool_peak_live_mb", static_cast<double>(c1.pool.peak_live_bytes) / 1048576.0);
  out.Num("memory.pool_heap_allocs",
          static_cast<double>(c1.pool.heap_allocs - c0.pool.heap_allocs));
  const double acquires = static_cast<double>(c1.pool.acquires - c0.pool.acquires);
  out.Num("memory.pool_hit_ratio",
          static_cast<double>(c1.pool.pool_hits - c0.pool.pool_hits) / std::max(1.0, acquires));
  int64_t save = 0;
  {
    Scope s(&tracer, "io.bundle_save");
    save = s.id();
    Check(tsfm::pipeline::SaveFittedBundle(Arg(a, "bundle"), st.adapter.get(),
                                           config.adapter_options, *st.head, st.norm->stats()),
          "save");
  }
  out.Num("io.bundle_save_s", tracer.DurationS(save));
  tracer.Write(Arg(a, "spans"));
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// trace-serve: serving replayed in-process on the loaded bundle.

double Median(std::vector<double> xs) {
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(xs.size() / 2), xs.end());
  return xs[xs.size() / 2];
}

template <typename F>
double TimeUs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return Seconds(t0, Clock::now()) * 1e6;
}

template <typename F>
double MedianUs(int64_t reps, F&& f) {
  std::vector<double> us;
  for (int64_t i = 0; i < reps; ++i) us.push_back(TimeUs([&] { f(i); }));
  return Median(std::move(us));
}

int TraceServe(const Args& a) {
  namespace ag = tsfm::ag;
  namespace sv = tsfm::serve;
  const tsfm::data::DatasetPair data = ReadData(a);
  const auto config = Config(a);
  const std::vector<int64_t> labels = ReadLabels(Arg(a, "labels"));
  const std::vector<Tensor> pool = RequestPool(data.test);
  const int64_t classes = data.train.num_classes;
  Tracer tracer;
  Json out;

  std::shared_ptr<tsfm::models::FoundationModel> model;
  out.Num("io.checkpoint_load_s", MedianUs(3, [&](int64_t) {
            Scope s(&tracer, "io.checkpoint_load");
            model = Check(tsfm::models::LoadOrPretrain(config.model_kind, config.model_config,
                                                       config.pretrain, config.checkpoint_path),
                          "load checkpoint");
          }) * 1e-6);
  tsfm::pipeline::FittedBundle bundle;
  out.Num("io.bundle_load_s", MedianUs(3, [&](int64_t) {
            Scope s(&tracer, "io.bundle_load");
            bundle = Check(tsfm::pipeline::LoadFittedBundle(Arg(a, "bundle"),
                                                            config.adapter.has_value(),
                                                            model->embedding_dim(), classes),
                           "load bundle");
          }) * 1e-6);
  const auto session = Check(
      tsfm::pipeline::InferenceSession::Create(model, bundle.adapter, bundle.head, bundle.stats,
                                               classes, tsfm::pipeline::SessionOptions{}),
      "session");

  // Protocol, both directions, through a socket pair as the server reads it.
  int sv_fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv_fds) != 0) Die("socketpair");
  const int64_t reps = std::min<int64_t>(200, static_cast<int64_t>(pool.size()) * 4);
  const auto sample = [&](int64_t i) { return static_cast<size_t>(i) % pool.size(); };
  std::string wire;
  out.Num("serve.request_bytes",
          static_cast<double>(sv::EncodeFrame({sv::MessageType::kClassifyRequest, 1,
                                               sv::EncodeTensorPayload(pool[0])})
                                  .size()));
  out.Num("serve.protocol_encode_us", MedianUs(reps, [&](int64_t i) {
            wire = sv::EncodeFrame({sv::MessageType::kClassifyRequest, 1,
                                    sv::EncodeTensorPayload(pool[sample(i)])});
            wire += sv::EncodeFrame({sv::MessageType::kClassifyResponse, 1,
                                     sv::EncodeLabelsPayload({labels[sample(i)]})});
          }));
  out.Num("serve.protocol_decode_us", MedianUs(reps, [&](int64_t i) {
            // The peer's write is inside the timed call so the bytes are
            // always there to read; it is a copy into the socket buffer.
            (void)i;
            if (::write(sv_fds[0], wire.data(), wire.size()) != static_cast<ssize_t>(wire.size())) {
              Die("socketpair write");
            }
            sv::Frame req, resp;
            Check(sv::ReadFrame(sv_fds[1], &req, nullptr), "read request");
            (void)Check(sv::DecodeTensorPayload(req.payload, 3), "decode request");
            Check(sv::ReadFrame(sv_fds[1], &resp, nullptr), "read response");
            (void)Check(sv::DecodeLabelsPayload(resp.payload), "decode response");
          }));
  ::close(sv_fds[0]);
  ::close(sv_fds[1]);

  // Each pool sample through normalize -> adapter -> encoder -> head, the
  // steps a session runs for a request of one, each step timed.
  const tsfm::pipeline::NormalizeStage norm(bundle.stats);
  const tsfm::pipeline::ExecutionContext ctx;
  ag::NoGradGuard guard;
  tsfm::Rng eval_rng(99);
  tsfm::nn::ForwardContext fwd{/*training=*/false, &eval_rng};
  std::vector<double> norm_us, adapt_us, encoder_us, head_us;
  bool labels_match = true;
  for (int64_t i = 0; i < reps; ++i) {
    const size_t k = sample(i);
    Tensor xn;
    ag::Var reduced, emb, logits;
    norm_us.push_back(TimeUs([&] {
      Scope s(&tracer, "pipeline.normalize");
      xn = Check(norm.Apply(pool[k], ctx), "normalize");
    }));
    adapt_us.push_back(TimeUs([&] {
      Scope s(&tracer, "core.adapter_transform");
      reduced = ag::Constant(xn);
      if (bundle.adapter) reduced = bundle.adapter->TransformVar(reduced);
    }));
    encoder_us.push_back(TimeUs([&] {
      Scope s(&tracer, "models.encoder");
      emb = model->EncodeChannels(reduced, fwd);
    }));
    head_us.push_back(TimeUs([&] {
      Scope s(&tracer, "models.head");
      logits = bundle.head->Forward(emb);
    }));
    labels_match = labels_match && tsfm::ArgMaxLast(logits.value())[0] == labels[k];
  }
  out.Num("pipeline.normalize_us", Median(norm_us));
  out.Num("core.adapter_transform_us", Median(adapt_us));
  out.Num("models.encoder_us", Median(encoder_us));
  out.Num("models.head_us", Median(head_us));
  out.Num("pipeline.session_predict_us", MedianUs(reps, [&](int64_t i) {
            Scope s(&tracer, "pipeline.session_predict");
            const auto got = Check(session->PredictBatch(pool[sample(i)]), "predict");
            labels_match = labels_match && got[0] == labels[sample(i)];
          }));
  const std::vector<Tensor> four(pool.begin(), pool.begin() + std::min<size_t>(4, pool.size()));
  const Tensor batch4 = tsfm::Concat(four, 0);
  out.Num("pipeline.session_predict_batch4_us", MedianUs(reps / 4 + 1, [&](int64_t) {
            Scope s(&tracer, "pipeline.session_predict_batch4");
            (void)Check(session->PredictBatch(batch4), "predict");
          }));

  // The mid-rate schedule through encode -> decode -> MicroBatcher ->
  // encode, with up to --conns submitters, reading each request's BatchStats.
  const int conns = static_cast<int>(IntArg(a, "conns"));
  const auto schedule = PoissonSchedule(NumArg(a, "mid-rps"), NumArg(a, "batcher-s"),
                                        static_cast<int32_t>(pool.size()),
                                        std::stoull(Arg(a, "seed")) * 7 + 2);
  std::vector<sv::BatchStats> stats(schedule.size());
  std::atomic<size_t> next{0};
  {
    sv::MicroBatcher batcher([&session] { return session; }, sv::BatchOptions{});
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < schedule.size(); i = next.fetch_add(1)) {
          std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(schedule[i].due_ns));
          const auto k = static_cast<size_t>(schedule[i].sample);
          Scope req(&tracer, "serve.request", i + 1);
          Tensor x;
          {
            Scope s(&tracer, "serve.protocol_decode", i + 1);
            const std::string frame = sv::EncodeFrame(
                {sv::MessageType::kClassifyRequest, i + 1, sv::EncodeTensorPayload(pool[k])});
            sv::FrameHeader header;
            Check(sv::ParseFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()), &header),
                  "header");
            x = Check(sv::DecodeTensorPayload(
                          std::string_view(frame).substr(sv::kFrameHeaderBytes,
                                                         frame.size() - sv::kFrameHeaderBytes -
                                                             sv::kFrameTrailerBytes),
                          3),
                      "decode");
          }
          std::vector<int64_t> got;
          {
            Scope s(&tracer, "serve.batcher", i + 1);
            got = Check(batcher.SubmitClassify(x, sv::RequestMeta{i + 1, 0}, &stats[i]).get(),
                        "batcher");
          }
          Scope s(&tracer, "serve.protocol_encode", i + 1);
          (void)sv::EncodeFrame({sv::MessageType::kClassifyResponse, i + 1,
                                 sv::EncodeLabelsPayload(got)});
          if (got.size() != 1 || got[0] != labels[k]) labels_match = false;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    batcher.Stop();
  }
  std::vector<double> queue_us;
  double batch_requests = 0;
  for (const sv::BatchStats& s : stats) {
    queue_us.push_back(static_cast<double>(s.queue_us));
    batch_requests += static_cast<double>(s.batch_requests);
  }
  out.Num("serve.batcher_queue_us", queue_us.empty() ? 0 : Median(queue_us));
  out.Num("serve.batch_requests", batch_requests / std::max<double>(1, static_cast<double>(stats.size())));
  out.Num("batcher_requests", static_cast<double>(stats.size()));
  out.Str("labels_match", labels_match ? "yes" : "no");
  tracer.Write(Arg(a, "spans"));
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// host-probe

int HostProbe(const Args& a) {
  const auto period = std::chrono::microseconds(IntArg(a, "period-us"));
  const auto end = Clock::now() + std::chrono::duration<double>(NumArg(a, "seconds"));
  std::vector<double> late_ms;
  while (Clock::now() < end) {
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(period);
    late_ms.push_back(Seconds(t0 + period, Clock::now()) * 1e3);
  }
  Json().Nums("late_ms", late_ms).Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: perfbench_worker MODE --key value ...");
  const std::string mode = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (mode == "data") return WriteData(args);
  if (mode == "pretrain") return Pretrain(args);
  if (mode == "fit") return Fit(args);
  if (mode == "serve") return Serve(args);
  if (mode == "trace-fit") return TraceFit(args);
  if (mode == "trace-serve") return TraceServe(args);
  if (mode == "host-probe") return HostProbe(args);
  Die("unknown mode " + mode);
}
