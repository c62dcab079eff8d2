// Serving stack: frame protocol hardening, micro-batch bit-identity and
// composition, admission control, hot-swap under load, and graceful drain.
//
// Tests that need requests to share a batch, or to stay queued, hold the
// batcher's first forward at the session provider (HeldBatcher) instead of
// waiting on a clock, so every batch they assert on has a known make-up.
//
// The fuzz matrix mirrors io_test's corruption matrix: truncation at every
// header byte, bit-flipped header/CRC bytes, and hostile length fields must
// surface as protocol errors (or a closed connection) — never a crash, a
// hang, or an unbounded allocation. Built with -DTSFM_SANITIZE=thread in CI
// alongside session_test.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/registry.h"
#include "pipeline/session.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using finetune::ClassifierConfig;
using finetune::TsfmClassifier;

data::DatasetPair Problem(uint64_t seed) {
  data::UeaDatasetSpec spec{"serve_toy", "sv", 40, 24, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

Result<TsfmClassifier> FittedClassifier(const data::DatasetPair& pair) {
  ClassifierConfig config;
  config.model_kind = models::ModelKind::kVit;
  config.model_config = models::VitTestConfig();
  config.pretrain.corpus_size = 48;
  config.pretrain.series_length = 32;
  config.pretrain.epochs = 1;
  config.finetune.head_epochs = 8;
  config.adapter_options.out_channels = 3;
  TSFM_ASSIGN_OR_RETURN(TsfmClassifier clf, TsfmClassifier::Create(config));
  TSFM_RETURN_IF_ERROR(clf.Fit(pair.train, &pair.test));
  return clf;
}

// One fitted session shared by every test (fitting dominates runtime). The
// classifier is leaked intentionally so the session stays valid for the
// whole process.
struct Fitted {
  data::DatasetPair pair;
  TsfmClassifier* clf = nullptr;
  std::shared_ptr<const pipeline::InferenceSession> session;
  std::vector<int64_t> reference;  // serial PredictBatch over pair.test.x
};

Fitted& F() {
  static Fitted* f = [] {
    auto* out = new Fitted();
    out->pair = Problem(31);
    auto clf = FittedClassifier(out->pair);
    if (!clf.ok()) {
      std::fprintf(stderr, "fixture: %s\n", clf.status().ToString().c_str());
      std::abort();
    }
    out->clf = new TsfmClassifier(std::move(*clf));
    out->session = out->clf->session();
    auto ref = out->session->PredictBatch(out->pair.test.x);
    if (!ref.ok()) std::abort();
    out->reference = *ref;
    return out;
  }();
  return *f;
}

struct RunningServer {
  pipeline::Registry registry;  // test-local, never the process singleton
  std::unique_ptr<serve::Server> server;
};

std::unique_ptr<RunningServer> StartServer(serve::ServerOptions options,
                                           const std::string& name =
                                               "default") {
  auto running = std::make_unique<RunningServer>();
  EXPECT_TRUE(running->registry.Install(name, F().session).ok());
  options.port = 0;
  options.session_name = name;
  auto server = serve::Server::Start(&running->registry, std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return nullptr;
  running->server = std::move(*server);
  return running;
}

double Metric(const char* name) {
  const auto snapshot = obs::Registry::Instance().TakeSnapshot();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

using LabelsFuture = std::future<Result<std::vector<int64_t>>>;

// A MicroBatcher over the fixture session whose first batch is held inside
// the session provider until Release(). The one-sample request riding that
// batch is the plug: while it is held, later submissions queue in a known
// order, and the next forward takes all of them.
class HeldBatcher {
 public:
  HeldBatcher()
      : batcher_([this] { return Provide(); }, serve::BatchOptions{}) {}
  // Releases first, so a failed assertion never leaves the worker parked.
  ~HeldBatcher() { Release(); }

  serve::MicroBatcher& batcher() { return batcher_; }

  // Submits test sample 0 as the plug; returns once the worker holds it.
  LabelsFuture Plug() {
    LabelsFuture plug =
        batcher_.SubmitClassify(F().pair.test.x.Narrow(0, 0, 1));
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
    return plug;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::shared_ptr<const pipeline::InferenceSession> Provide() {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return F().session;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
  serve::MicroBatcher batcher_;  // last: its worker uses the members above
};

// ---------------------------------------------------------------------------
// Protocol units.

TEST(ServeProtocolTest, PayloadCodecsRoundTrip) {
  const Tensor x = F().pair.test.x.Narrow(0, 0, 2);
  auto tensor = serve::DecodeTensorPayload(serve::EncodeTensorPayload(x), 3);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  ASSERT_EQ(tensor->shape(), x.shape());
  const Tensor xc = x.Contiguous();
  EXPECT_EQ(std::memcmp(tensor->data(), xc.data(),
                        sizeof(float) * static_cast<size_t>(xc.numel())),
            0);

  const std::vector<int64_t> labels{3, 1, 4, 1, 5};
  auto rt = serve::DecodeLabelsPayload(serve::EncodeLabelsPayload(labels));
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(*rt, labels);

  auto s = serve::DecodeStringPayload(serve::EncodeStringPayload("bundle_a"));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "bundle_a");

  const Status err = Status::InvalidArgument("bad shape");
  const Status decoded =
      serve::DecodeErrorPayload(serve::EncodeErrorPayload(err));
  EXPECT_EQ(decoded.code(), err.code());
  EXPECT_EQ(decoded.message(), err.message());
}

TEST(ServeProtocolTest, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::Frame out{serve::MessageType::kClassifyRequest, 42,
                   serve::EncodeTensorPayload(F().pair.test.x.Narrow(0, 0, 1))};
  ASSERT_TRUE(serve::WriteFrame(fds[0], out).ok());
  serve::Frame in;
  ASSERT_TRUE(serve::ReadFrame(fds[1], &in, nullptr).ok());
  EXPECT_EQ(in.type, out.type);
  EXPECT_EQ(in.request_id, 42u);
  EXPECT_EQ(in.payload, out.payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocolTest, HeaderValidationRejectsGarbage) {
  const serve::Frame frame{serve::MessageType::kPing, 7, ""};
  const std::string good = serve::EncodeFrame(frame);
  ASSERT_GE(good.size(), serve::kFrameHeaderBytes);
  serve::FrameHeader header;
  ASSERT_TRUE(serve::ParseFrameHeader(
                  reinterpret_cast<const uint8_t*>(good.data()), &header)
                  .ok());

  auto rejects = [&](size_t offset, uint8_t value) {
    std::string bad = good;
    bad[offset] = static_cast<char>(value);
    serve::FrameHeader h;
    return !serve::ParseFrameHeader(
                reinterpret_cast<const uint8_t*>(bad.data()), &h)
                .ok();
  };
  EXPECT_TRUE(rejects(0, 0xFF));  // magic
  EXPECT_TRUE(rejects(4, 0xEE));  // version
  EXPECT_TRUE(rejects(6, 0xEE));  // unknown type
  // Hostile payload_size: the high byte makes it astronomically larger than
  // kMaxFramePayload; the header alone must reject it (no allocation).
  EXPECT_TRUE(rejects(23, 0xFF));
}

TEST(ServeProtocolTest, HostileTensorLengthsRejectedWithoutAllocation) {
  // ndim claims 2^61 dims in a 16-byte payload.
  std::string evil(16, '\0');
  uint64_t ndim = 1ull << 61;
  std::memcpy(evil.data(), &ndim, sizeof(ndim));
  EXPECT_FALSE(serve::DecodeTensorPayload(evil, 3).ok());

  // Plausible ndim but dims whose product dwarfs the actual payload bytes.
  std::string dims(8 + 3 * 8 + 4, '\0');
  uint64_t three = 3, huge = 1ull << 40, one = 1;
  std::memcpy(dims.data(), &three, 8);
  std::memcpy(dims.data() + 8, &huge, 8);
  std::memcpy(dims.data() + 16, &huge, 8);
  std::memcpy(dims.data() + 24, &one, 8);
  EXPECT_FALSE(serve::DecodeTensorPayload(dims, 3).ok());

  // Labels payload claiming 2^50 entries.
  std::string labels(8, '\0');
  uint64_t n = 1ull << 50;
  std::memcpy(labels.data(), &n, sizeof(n));
  EXPECT_FALSE(serve::DecodeLabelsPayload(labels).ok());
}

TEST(ServeProtocolTest, ContextFrameRoundTripsAndZeroTraceStaysV1) {
  // trace_id == 0 must encode byte-identical to the pre-context v1 wire.
  serve::Frame plain{serve::MessageType::kPing, 1, "abc"};
  const std::string v1 = serve::EncodeFrame(plain);
  uint16_t version;
  std::memcpy(&version, v1.data() + 4, 2);
  EXPECT_EQ(version, serve::kProtocolVersion);

  // A nonzero trace id upgrades the frame to v2 and survives the
  // round-trip.
  serve::Frame traced{serve::MessageType::kClassifyRequest, 2,
                      serve::EncodeTensorPayload(
                          F().pair.test.x.Narrow(0, 0, 1))};
  traced.trace_id = 0xDEADBEEFu;
  const std::string v2 = serve::EncodeFrame(traced);
  std::memcpy(&version, v2.data() + 4, 2);
  EXPECT_EQ(version, serve::kProtocolVersionContext);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(serve::WriteFrame(fds[0], traced).ok());
  serve::Frame in;
  ASSERT_TRUE(serve::ReadFrame(fds[1], &in, nullptr).ok());
  EXPECT_EQ(in.trace_id, 0xDEADBEEFu);
  EXPECT_EQ(in.request_id, 2u);
  EXPECT_EQ(in.payload, traced.payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocolTest, HostileContextLengthsRejectedWithoutAllocation) {
  const serve::Frame plain{serve::MessageType::kPing, 3, ""};
  std::string wire = serve::EncodeFrame(plain);
  // Upgrade the header to v2 and append a hostile ctx_len: 0xFFFF would be
  // a 64 KiB read if the reader trusted it; the cap (kMaxContextBytes) must
  // reject it from the 2 length bytes alone, before any context read or
  // allocation.
  const uint16_t v2 = serve::kProtocolVersionContext;
  std::memcpy(wire.data() + 4, &v2, 2);
  std::string hostile = wire.substr(0, serve::kFrameHeaderBytes);
  const uint16_t huge_len = 0xFFFF;
  hostile.append(reinterpret_cast<const char*>(&huge_len), 2);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], hostile.data(), hostile.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hostile.size()));
  ::shutdown(fds[0], SHUT_WR);
  serve::Frame in;
  const Status s = serve::ReadFrame(fds[1], &in, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);

  // A v2 frame truncated mid-context must surface as a truncated frame, not
  // a hang or a crash.
  std::string truncated = wire.substr(0, serve::kFrameHeaderBytes);
  const uint16_t claimed = serve::kContextBytes;
  truncated.append(reinterpret_cast<const char*>(&claimed), 2);
  truncated.append(4, '\x07');  // 4 of the claimed 16 context bytes
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], truncated.data(), truncated.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(truncated.size()));
  ::shutdown(fds[0], SHUT_WR);
  EXPECT_FALSE(serve::ReadFrame(fds[1], &in, nullptr).ok());
  ::close(fds[0]);
  ::close(fds[1]);

  // A corrupted context byte must fail the chained CRC (which covers
  // ctx || payload).
  serve::Frame traced{serve::MessageType::kPing, 4, "xyz"};
  traced.trace_id = 77;
  std::string flipped = serve::EncodeFrame(traced);
  flipped[serve::kFrameHeaderBytes + 3] ^= 0x40;  // inside the ctx block
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], flipped.data(), flipped.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(flipped.size()));
  ::shutdown(fds[0], SHUT_WR);
  const Status crc = serve::ReadFrame(fds[1], &in, nullptr);
  ASSERT_FALSE(crc.ok());
  EXPECT_NE(crc.ToString().find("CRC"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Server behavior.

TEST(ServeServerTest, BatchingIsBitIdenticalToSerial) {
  serve::ServerOptions options;
  options.batch.max_batch = 16;
  auto running = StartServer(options);
  ASSERT_NE(running, nullptr);
  const int port = running->server->port();
  const Fitted& f = F();

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0}, failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = serve::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const int64_t idx = (t * kRounds + round) %
                            static_cast<int64_t>(f.reference.size());
        auto labels = client->Classify(f.pair.test.x.Narrow(0, idx, 1));
        if (!labels.ok()) {
          ++failures;
          continue;
        }
        if ((*labels)[0] != f.reference[idx]) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  running->server->Stop();
}

TEST(ServeServerTest, EmbedMatchesSessionBitIdentical) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());

  const Tensor batch = F().pair.test.x.Narrow(0, 0, 4);
  auto served = client->Embed(batch);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto direct = F().session->Embed(batch);
  ASSERT_TRUE(direct.ok());
  const Tensor expect = direct->Contiguous();
  ASSERT_EQ(served->shape(), expect.shape());
  EXPECT_EQ(std::memcmp(served->data(), expect.data(),
                        sizeof(float) * static_cast<size_t>(expect.numel())),
            0);
  running->server->Stop();
}

TEST(ServeClientTest, EmbedRejectsAnotherRowCount) {
  // A one-shot fake server that answers an embed of N samples with N + 1
  // rows.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const Tensor batch = F().pair.test.x.Narrow(0, 0, 2);
  std::thread fake([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    serve::Frame request;
    if (serve::ReadFrame(fd, &request, nullptr).ok()) {
      serve::WriteFrame(
          fd, serve::Frame{serve::MessageType::kEmbedResponse,
                           request.request_id,
                           serve::EncodeTensorPayload(
                               Tensor::Zeros({batch.dim(0) + 1, 8}))});
    }
    ::close(fd);
  });

  Result<Tensor> served = Status::Internal("not connected");
  if (auto client = serve::Client::Connect("127.0.0.1", ntohs(addr.sin_port));
      client.ok()) {
    served = client->Embed(batch);
  }
  ::shutdown(listen_fd, SHUT_RDWR);  // unblocks accept if connect failed
  fake.join();
  ::close(listen_fd);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInternal);
  EXPECT_NE(served.status().message().find("row count"), std::string::npos);
}

TEST(ServeServerTest, PingStatsAndReloadWithoutHandler) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("serve."), std::string::npos);
  // No reload_fn configured: reload must fail cleanly, not crash.
  auto reload = client->Reload("anywhere");
  EXPECT_FALSE(reload.ok());
  running->server->Stop();
}

TEST(ServeServerTest, AdmissionControlShedsWithBusy) {
  serve::ServerOptions options;
  options.max_pending = 1;
  auto running = StartServer(options);
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  const double shed_before = Metric("serve.shed");

  // Two samples exceed a cap of one even with nothing queued. (The queued
  // side of the rule is the pending_samples() count that ServeBatcherTest
  // asserts under a hold.)
  auto shed = client->Classify(F().pair.test.x.Narrow(0, 0, 2));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Metric("serve.shed"), shed_before + 1);

  // Shedding is per request: one sample fits and is answered.
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 0, 1));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ((*labels)[0], F().reference[0]);
  running->server->Stop();
}

TEST(ServeServerTest, TrippedBudgetShedsUntilCleared) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  const Tensor one = F().pair.test.x.Narrow(0, 0, 1);
  const double shed_before = Metric("serve.shed");

  // The fitted session alone holds more than one byte, so a 1-byte memory
  // cap trips the monitor at the first admission check.
  obs::BudgetLimits limits;
  limits.mem_bytes = 1;
  obs::SetBudget(limits);
  auto shed = client->Classify(one);
  obs::ClearBudget();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Metric("serve.shed"), shed_before + 1);

  auto labels = client->Classify(one);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ((*labels)[0], F().reference[0]);
  running->server->Stop();
}

TEST(ServeServerTest, HotSwapUnderLoadNeverDropsARequest) {
  // A second fitted bundle to swap in (different seed, same shapes).
  static Fitted* other = [] {
    auto* out = new Fitted();
    out->pair = Problem(32);
    auto clf = FittedClassifier(out->pair);
    if (!clf.ok()) std::abort();
    out->clf = new TsfmClassifier(std::move(*clf));
    out->session = out->clf->session();
    return out;
  }();
  const Fitted& f = F();
  auto ref_other = other->session->PredictBatch(f.pair.test.x);
  ASSERT_TRUE(ref_other.ok());

  auto running = std::make_unique<RunningServer>();
  ASSERT_TRUE(running->registry.Install("hot", f.session).ok());
  serve::ServerOptions options;
  options.port = 0;
  options.session_name = "hot";
  pipeline::Registry* reg = &running->registry;
  auto session_a = f.session;
  auto session_b = other->session;
  options.reload_fn = [reg, session_a, session_b](const std::string& prefix) {
    return reg->Install("hot", prefix == "a" ? session_a : session_b);
  };
  auto server = serve::Server::Start(reg, std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = serve::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++bad;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const int64_t idx =
            (t + round) % static_cast<int64_t>(f.reference.size());
        auto labels = client->Classify(f.pair.test.x.Narrow(0, idx, 1));
        // Every response must be answered and must equal one of the two
        // installed pipelines' serial predictions for that sample (a batch
        // runs entirely on whichever session it resolved).
        if (!labels.ok() || ((*labels)[0] != f.reference[idx] &&
                             (*labels)[0] != (*ref_other)[idx])) {
          ++bad;
        }
      }
    });
  }
  // Swap back and forth while the load runs.
  auto admin = serve::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(admin.ok());
  for (int swap = 0; swap < 6; ++swap) {
    auto name = admin->Reload(swap % 2 == 0 ? "b" : "a");
    EXPECT_TRUE(name.ok()) << name.status().ToString();
    if (name.ok()) {
      EXPECT_EQ(*name, "hot");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  (*server)->Stop();
}

TEST(ServeServerTest, StopAnswersInFlightRequests) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  const int port = running->server->port();
  const Fitted& f = F();
  const double batches_before = Metric("serve.batches");

  std::atomic<bool> answered{false}, finished{false};
  std::thread inflight([&] {
    [&] {
      auto client = serve::Client::Connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok());
      auto labels = client->Classify(f.pair.test.x.Narrow(0, 2, 1));
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      EXPECT_EQ((*labels)[0], f.reference[2]);
      answered.store(true);
    }();
    finished.store(true);
  });
  // Stop once the request's batch has run, while its handler may still be
  // writing the response: the drain must let that response out.
  while (Metric("serve.batches") == batches_before && !finished.load()) {
    std::this_thread::yield();
  }
  running->server->Stop();
  inflight.join();
  EXPECT_TRUE(answered.load());
}

TEST(ServeServerTest, ShutdownVerbAcknowledgesThenDrains) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(running->server->ShutdownRequested());
  EXPECT_TRUE(client->Shutdown().ok());
  EXPECT_TRUE(running->server->ShutdownRequested());
  running->server->Stop();
}

TEST(ServeBatcherTest, RequestsQueuedBehindAHeldBatchShareOneForward) {
  const Fitted& f = F();
  const double batches_before = Metric("serve.batches");
  const double merged_before = Metric("serve.merged_requests");
  HeldBatcher held;
  LabelsFuture plug = held.Plug();

  constexpr int kRequests = 8;
  serve::BatchStats stats[kRequests];
  std::vector<LabelsFuture> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(held.batcher().SubmitClassify(
        f.pair.test.x.Narrow(0, i + 1, 1), serve::RequestMeta{}, &stats[i]));
  }
  // The admission-control input counts exactly what is queued.
  EXPECT_EQ(held.batcher().pending_samples(), kRequests);

  held.Release();
  auto plug_labels = plug.get();
  ASSERT_TRUE(plug_labels.ok()) << plug_labels.status().ToString();
  EXPECT_EQ((*plug_labels)[0], f.reference[0]);
  for (int i = 0; i < kRequests; ++i) {
    auto labels = futures[i].get();
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ((*labels)[0], f.reference[i + 1]) << i;
    EXPECT_NE(stats[i].batch_id, 0u) << i;
    EXPECT_EQ(stats[i].batch_id, stats[0].batch_id) << i;
    EXPECT_EQ(stats[i].batch_requests, kRequests) << i;
  }
  EXPECT_EQ(held.batcher().pending_samples(), 0);
  // Two forwards: the plug alone, then all eight together.
  EXPECT_EQ(Metric("serve.batches") - batches_before, 2.0);
  EXPECT_EQ(Metric("serve.merged_requests") - merged_before, kRequests);
}

TEST(ServeBatcherTest, StopDrainsRequestsQueuedBehindAHeldBatch) {
  const Fitted& f = F();
  const int64_t samples = static_cast<int64_t>(f.reference.size());
  HeldBatcher held;
  LabelsFuture plug = held.Plug();
  std::vector<std::pair<int64_t, LabelsFuture>> queued;
  for (int64_t idx : {3, 5, 7, 11}) {
    queued.emplace_back(
        idx, held.batcher().SubmitClassify(f.pair.test.x.Narrow(0, idx, 1)));
  }

  std::thread stopper([&] { held.batcher().Stop(); });
  // A submission fails at once after Stop has begun and never before (the
  // worker is held, so nothing else can resolve it). Probe until one fails:
  // Stop has then begun with every request above still queued. Probes that
  // queued first are drained and checked like the rest.
  for (int64_t idx = 0;; idx = (idx + 1) % samples) {
    LabelsFuture probe =
        held.batcher().SubmitClassify(f.pair.test.x.Narrow(0, idx, 1));
    if (probe.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      auto refused = probe.get();
      EXPECT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    queued.emplace_back(idx, std::move(probe));
    std::this_thread::yield();
  }
  held.Release();
  stopper.join();

  auto plug_labels = plug.get();
  ASSERT_TRUE(plug_labels.ok()) << plug_labels.status().ToString();
  EXPECT_EQ((*plug_labels)[0], f.reference[0]);
  for (auto& [idx, future] : queued) {
    // Bounded only so that a drain which drops requests fails, not hangs.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << idx;
    auto labels = future.get();
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ((*labels)[0], f.reference[idx]) << idx;
  }
}

TEST(ServeBatcherTest, SubmitAfterStopFailsFast) {
  auto session = F().session;
  serve::MicroBatcher batcher([session] { return session; },
                              serve::BatchOptions{});
  batcher.Stop();
  auto future = batcher.SubmitClassify(F().pair.test.x.Narrow(0, 0, 1));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ServeBatcherTest, MissingSessionSurfacesAsError) {
  auto running = std::make_unique<RunningServer>();
  serve::ServerOptions options;
  options.port = 0;
  options.session_name = "never_installed";
  auto server = serve::Server::Start(&running->registry, std::move(options));
  ASSERT_TRUE(server.ok());
  auto client = serve::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 0, 1));
  EXPECT_FALSE(labels.ok());  // clean error frame, not a crash
  (*server)->Stop();
}

// ---------------------------------------------------------------------------
// Request-scoped observability: trace stitching, the exposition endpoint,
// SLO tracking, and the access log.

TEST(ServeBatcherTest, StitchedTraceTreeAcrossSharedMicroBatch) {
  obs::EnableTracing();
  obs::ClearTrace();
  HeldBatcher held;
  LabelsFuture plug = held.Plug();

  // Four requests, each with its own trace id, queue behind the plug and
  // ride the next batch together.
  constexpr int kRequests = 4;
  serve::BatchStats stats[kRequests];
  std::vector<LabelsFuture> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(held.batcher().SubmitClassify(
        F().pair.test.x.Narrow(0, i, 1),
        serve::RequestMeta{static_cast<uint64_t>(i + 1), 1000u + i},
        &stats[i]));
  }
  held.Release();
  ASSERT_TRUE(plug.get().ok());
  for (auto& f : futures) {
    auto labels = f.get();
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  }
  held.batcher().Stop();
  obs::DisableTracing();

  // The promise/future edge published every request's BatchStats: one
  // shared nonzero batch id, 4 requests, 4 samples.
  const uint64_t batch_id = stats[0].batch_id;
  EXPECT_NE(batch_id, 0u);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(stats[i].batch_id, batch_id) << i;
    EXPECT_EQ(stats[i].batch_requests, kRequests) << i;
    EXPECT_EQ(stats[i].batch_samples, kRequests) << i;
    EXPECT_GE(stats[i].queue_us, 0) << i;
    EXPECT_GT(stats[i].execute_us, 0) << i;
  }

  // Reconstruct the stitched tree from the trace ring: every request owns a
  // queue-wait span carrying (its trace id, the shared batch id) — the join
  // key — and the batch-scoped spans (execute, session.predict) carry the
  // batch id so they attach to all four request trees.
  int queue_spans = 0;
  bool execute_span = false, session_span = false;
  for (const obs::TraceEvent& e : obs::TraceSnapshot()) {
    const std::string name = e.name;
    if (name == "serve.queue_wait" && e.batch_id == batch_id &&
        e.trace_id >= 1000u && e.trace_id < 1000u + kRequests) {
      ++queue_spans;
    } else if (name == "serve.batch.execute" && e.batch_id == batch_id) {
      execute_span = true;
      EXPECT_EQ(e.trace_id, 0u);  // batch-scoped, owned by no one request
    } else if (name == "session.predict" && e.batch_id == batch_id) {
      session_span = true;
    }
  }
  EXPECT_EQ(queue_spans, kRequests);
  EXPECT_TRUE(execute_span);
  EXPECT_TRUE(session_span);
  obs::ClearTrace();
}

TEST(ServeServerTest, EndToEndTraceStitchesClientThroughServer) {
  serve::ServerOptions options;
  auto running = StartServer(options);
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());

  obs::EnableTracing();
  obs::ClearTrace();
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 0, 1));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();

  // The id the client minted and sent over the wire names the whole tree.
  const uint64_t trace_id = client->last_trace_id();
  ASSERT_NE(trace_id, 0u);
  bool client_span = false, server_span = false, queue_span = false;
  uint64_t batch_id = 0;
  // The handler's serve.request span closes after the response is written,
  // so the client can get its answer before the span is recorded — poll
  // briefly instead of snapshotting once.
  for (int attempt = 0; attempt < 100; ++attempt) {
    client_span = server_span = queue_span = false;
    batch_id = 0;
    for (const obs::TraceEvent& e : obs::TraceSnapshot()) {
      const std::string name = e.name;
      if (e.trace_id != trace_id) continue;
      if (name == "serve.client.request") client_span = true;
      if (name == "serve.request") server_span = true;
      if (name == "serve.queue_wait") {
        queue_span = true;
        batch_id = e.batch_id;
      }
    }
    if (client_span && server_span && queue_span) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  obs::DisableTracing();
  EXPECT_TRUE(client_span);
  EXPECT_TRUE(server_span);
  EXPECT_TRUE(queue_span);
  EXPECT_NE(batch_id, 0u);  // the request joined a real batch
  obs::ClearTrace();
  running->server->Stop();
}

TEST(ServeServerTest, MetricsVerbServesPrometheusExposition) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 0, 1));
  ASSERT_TRUE(labels.ok());

  auto text = client->MetricsText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE tsfm_serve_requests_total counter"),
            std::string::npos);
  // The rolling window keys are live right after the request.
  EXPECT_NE(text->find("tsfm_serve_request_seconds_window_p99"),
            std::string::npos);
  EXPECT_NE(text->find("tsfm_serve_requests_window_rate"),
            std::string::npos);
  // Per-op latency carries model and op labels.
  EXPECT_NE(text->find("tsfm_serve_request_latency_window_p99"
                       "{model=\"default\",op=\"classify\"}"),
            std::string::npos);
  // trace.dropped is registered even though tracing never ran here.
  EXPECT_NE(text->find("tsfm_trace_dropped"), std::string::npos);
  running->server->Stop();
}

TEST(ServeServerTest, SloBreachTripsOnImpossibleThreshold) {
  const double breaches_before = Metric("serve.slo.breaches");
  serve::ServerOptions options;
  options.slo.p99_ms = 1e-6;  // no real request can beat a nanosecond SLO
  auto running = StartServer(options);
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 0, 1));
  ASSERT_TRUE(labels.ok());

  // The scrape verb forces an SLO evaluation, so the breach is visible in
  // the same exposition payload that reports it.
  auto text = client->MetricsText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("tsfm_serve_slo_ok 0"), std::string::npos);
  EXPECT_GE(Metric("serve.slo.breaches"), breaches_before + 1.0);
  running->server->Stop();
}

TEST(ServeServerTest, AccessLogWritesOneJsonLinePerRequest) {
  const std::string path = "serve_test_access.log";
  serve::ServerOptions options;
  options.access_log.path = path;
  auto running = StartServer(options);
  ASSERT_NE(running, nullptr);
  auto client = serve::Client::Connect("127.0.0.1", running->server->port());
  ASSERT_TRUE(client.ok());

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    auto labels = client->Classify(F().pair.test.x.Narrow(0, i, 1));
    ASSERT_TRUE(labels.ok());
  }
  const uint64_t last_trace = client->last_trace_id();
  running->server->Stop();

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  int ok_lines = 0;
  bool saw_last_trace = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // Every record is one complete JSON object with the fields the loadgen
    // cross-check keys on.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"request_id\":"), std::string::npos);
    EXPECT_NE(line.find("\"batch_id\":"), std::string::npos);
    EXPECT_NE(line.find("\"queue_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"op\":\"classify\""), std::string::npos);
    if (line.find("\"status\":\"ok\"") != std::string::npos) ++ok_lines;
    if (line.find("\"trace_id\":" + std::to_string(last_trace)) !=
        std::string::npos) {
      saw_last_trace = true;
    }
  }
  EXPECT_EQ(ok_lines, kRequests);
  EXPECT_TRUE(saw_last_trace);  // the log cross-links into the trace tree
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fuzz matrix (mirrors io_test's corruption matrix).

// Sends `bytes` raw, half-closes, and drains whatever the server answers.
// Returns true when the exchange terminated (response or EOF) — i.e. the
// server neither hung nor died mid-conversation.
bool RawExchange(int port, const std::string& bytes) {
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  const int fd = client->fd();
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // server already closed on us: acceptable
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  // Drain until EOF/close; bounded by the frame reader's own validation.
  serve::Frame response;
  while (serve::ReadFrame(fd, &response, nullptr).ok()) {
  }
  return true;
}

TEST(ServeFuzzTest, TruncationBitFlipsAndHostileLengthsNeverKillServer) {
  auto running = StartServer(serve::ServerOptions{});
  ASSERT_NE(running, nullptr);
  const int port = running->server->port();

  const serve::Frame good{
      serve::MessageType::kClassifyRequest, 9,
      serve::EncodeTensorPayload(F().pair.test.x.Narrow(0, 0, 1))};
  const std::string wire = serve::EncodeFrame(good);
  ASSERT_GT(wire.size(), serve::kFrameHeaderBytes + serve::kFrameTrailerBytes);

  // Truncation at every header byte, a payload cut, and every trailer byte.
  std::vector<size_t> cuts;
  for (size_t c = 0; c <= serve::kFrameHeaderBytes; ++c) cuts.push_back(c);
  cuts.push_back(serve::kFrameHeaderBytes + 11);
  cuts.push_back(wire.size() / 2);
  for (size_t c = wire.size() - serve::kFrameTrailerBytes; c < wire.size();
       ++c) {
    cuts.push_back(c);
  }
  for (const size_t cut : cuts) {
    EXPECT_TRUE(RawExchange(port, wire.substr(0, cut))) << "cut=" << cut;
  }

  // Bit-flip every header byte and every trailer (CRC) byte, plus a payload
  // byte. Flips that land in request_id still form a valid frame — the
  // point is the server survives whatever each flip produces.
  std::vector<size_t> flips;
  for (size_t i = 0; i < serve::kFrameHeaderBytes; ++i) flips.push_back(i);
  flips.push_back(serve::kFrameHeaderBytes + 5);
  for (size_t i = wire.size() - serve::kFrameTrailerBytes; i < wire.size();
       ++i) {
    flips.push_back(i);
  }
  for (const size_t flip : flips) {
    std::string mutated = wire;
    mutated[flip] = static_cast<char>(mutated[flip] ^ 0x55);
    EXPECT_TRUE(RawExchange(port, mutated)) << "flip=" << flip;
  }

  // Hostile length field: a header alone demanding kMaxFramePayload + 1.
  std::string hostile = wire.substr(0, serve::kFrameHeaderBytes);
  const uint64_t huge = serve::kMaxFramePayload + 1;
  std::memcpy(hostile.data() + 16, &huge, sizeof(huge));
  EXPECT_TRUE(RawExchange(port, hostile));

  // Zero-length classify payload (valid frame, empty tensor) must error,
  // not crash.
  serve::Frame empty{serve::MessageType::kClassifyRequest, 10, ""};
  EXPECT_TRUE(RawExchange(port, serve::EncodeFrame(empty)));

  EXPECT_GE(Metric("serve.protocol_errors"), 1.0);

  // The server is still healthy after the whole matrix.
  auto client = serve::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  auto labels = client->Classify(F().pair.test.x.Narrow(0, 1, 1));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ((*labels)[0], F().reference[1]);
  running->server->Stop();
}

}  // namespace
}  // namespace tsfm
