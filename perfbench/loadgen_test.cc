// Tests of the benchmark's load generator against a fake server that speaks
// the tsfm serve wire protocol and misbehaves on cue.

#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using tsfm::serve::Frame;
using tsfm::serve::MessageType;

constexpr int64_t kLabel = 3;

// Answers the n-th request (counted over all connections) with whatever
// `reply` returns; nullopt means never answer.
class FakeServer {
 public:
  using Reply = std::function<std::optional<Frame>(int64_t n)>;

  explicit FakeServer(Reply reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accept_ = std::thread([this] { AcceptLoop(); });
  }

  ~FakeServer() {
    stop_ = true;
    accept_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::thread& t : handlers_) t.join();
    ::close(listen_fd_);
  }

  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  int port() const { return port_; }

  static Frame Labels(int64_t label) {
    return {MessageType::kClassifyResponse, 0,
            tsfm::serve::EncodeLabelsPayload({label})};
  }

 private:
  void AcceptLoop() {
    while (!stop_) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lock(mu_);
      handlers_.emplace_back([this, fd] { Handle(fd); });
    }
  }

  void Handle(int fd) {
    Frame request;
    while (tsfm::serve::ReadFrame(fd, &request, &stop_).ok()) {
      std::optional<Frame> reply = reply_(count_++);
      if (!reply.has_value()) continue;
      reply->request_id = request.request_id;
      if (!tsfm::serve::WriteFrame(fd, *reply).ok()) break;
    }
    ::close(fd);
  }

  Reply reply_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> count_{0};
  std::mutex mu_;
  std::vector<std::thread> handlers_;
  std::thread accept_;
};

struct Pool {
  std::vector<std::string> payloads{
      tsfm::serve::EncodeTensorPayload(tsfm::Tensor::Zeros({1, 8, 2}))};
  std::vector<int64_t> labels{kLabel};

  Target At(int port, int64_t grace_ms = 2000) const {
    Target t;
    t.port = port;
    t.payloads = &payloads;
    t.labels = &labels;
    t.grace_ms = grace_ms;
    return t;
  }
};

std::vector<Scheduled> Evenly(int n, int64_t spacing_ms) {
  std::vector<Scheduled> out;
  for (int i = 0; i < n; ++i) out.push_back({i * spacing_ms * 1000000, 0});
  return out;
}

double LatencyMs(const Record& r) { return (r.done_ns - r.due_ns) * 1e-6; }

constexpr int kStalled = 4;
constexpr int64_t kStallMs = 300;

TEST(LoadgenTest, StallShowsInEveryLaterRequestTimedFromDue) {
  FakeServer server([](int64_t n) {
    if (n == kStalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    }
    return std::optional<Frame>(FakeServer::Labels(kLabel));
  });
  const Pool pool;
  const auto schedule = Evenly(40, 10);
  const auto records = RunOpenLoop(pool.At(server.port()), schedule, 1);
  ASSERT_EQ(records.size(), schedule.size());
  EXPECT_EQ(CountOk(records), 40);
  // The stall ends about kStalled * 10 + kStallMs ms after phase start; every
  // request due before then waited for it, so its latency from the due time
  // covers the rest of the stall although its own reply was quick.
  const double stall_end_ms = kStalled * 10.0 + kStallMs;
  int behind = 0;
  for (size_t i = kStalled + 1; i < records.size(); ++i) {
    const Record& r = records[i];
    const double due_ms = r.due_ns * 1e-6;
    if (due_ms >= stall_end_ms - 20) continue;
    ++behind;
    EXPECT_GE(LatencyMs(r), stall_end_ms - due_ms - 5) << "request " << i;
    EXPECT_GT(r.send_ns - r.due_ns, 0) << "request " << i;
    EXPECT_LT((r.done_ns - r.send_ns) * 1e-6, 100.0) << "request " << i;
  }
  EXPECT_GE(behind, 20);
  EXPECT_GE(LatencyMs(records[kStalled]), kStallMs - 5);
}

TEST(LoadgenTest, BusyErrorsAndWrongLabelsAreNotOk) {
  FakeServer server([](int64_t n) {
    if (n == 1) return std::optional<Frame>(Frame{MessageType::kBusy, 0, ""});
    if (n == 3) {
      return std::optional<Frame>(
          Frame{MessageType::kError, 0,
                tsfm::serve::EncodeErrorPayload(tsfm::Status::Internal("boom"))});
    }
    if (n == 5) return std::optional<Frame>(FakeServer::Labels(kLabel + 4));
    return std::optional<Frame>(FakeServer::Labels(kLabel));
  });
  const Pool pool;
  const auto records = RunOpenLoop(pool.At(server.port()), Evenly(8, 2), 1);
  const std::vector<Outcome> want = {Outcome::kOk,    Outcome::kBusy,  Outcome::kOk,
                                     Outcome::kError, Outcome::kOk,    Outcome::kMismatch,
                                     Outcome::kOk,    Outcome::kOk};
  ASSERT_EQ(records.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(records[i].outcome, want[i]) << "request " << i;
  }
  EXPECT_EQ(CountOk(records), 5);
}

TEST(LoadgenTest, UnansweredAndUnsentRequestsTimeOut) {
  FakeServer server([](int64_t n) {
    return n == 2 ? std::nullopt : std::optional<Frame>(FakeServer::Labels(kLabel));
  });
  const Pool pool;
  const auto records = RunOpenLoop(pool.At(server.port(), 200), Evenly(5, 2), 1);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].outcome, Outcome::kOk);
  EXPECT_EQ(records[1].outcome, Outcome::kOk);
  for (size_t i = 2; i < records.size(); ++i) {
    EXPECT_EQ(records[i].outcome, Outcome::kTimeout) << "request " << i;
  }
  EXPECT_EQ(records[4].send_ns, -1);
  EXPECT_EQ(CountOk(records), 2);
}

TEST(LoadgenTest, ClosedLoopKeepsEveryConnectionBusy) {
  FakeServer server([](int64_t) { return std::optional<Frame>(FakeServer::Labels(kLabel)); });
  const Pool pool;
  const auto records = RunClosedLoop(pool.At(server.port()), 3, 0.2, 1);
  std::set<int> conns;
  for (const Record& r : records) conns.insert(r.conn);
  EXPECT_EQ(conns.size(), 3u);
  EXPECT_EQ(CountOk(records), static_cast<int64_t>(records.size()));
  EXPECT_GT(records.size(), 30u);
}

TEST(LoadgenTest, PoissonScheduleIsSeededAndHasItsRate) {
  const auto a = PoissonSchedule(200.0, 20.0, 16, 5);
  const auto b = PoissonSchedule(200.0, 20.0, 16, 5);
  const auto c = PoissonSchedule(200.0, 20.0, 16, 6);
  ASSERT_EQ(a.size(), 4000u);
  ASSERT_EQ(b.size(), a.size());
  ASSERT_EQ(c.size(), a.size());
  int64_t first_half = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].sample, b[i].sample);
    EXPECT_GE(a[i].sample, 0);
    EXPECT_LT(a[i].sample, 16);
    EXPECT_GE(a[i].due_ns, i == 0 ? 0 : a[i - 1].due_ns);
    EXPECT_LT(a[i].due_ns, 20'000'000'000);
    first_half += a[i].due_ns < 10'000'000'000;
  }
  EXPECT_NEAR(static_cast<double>(first_half), 2000.0, 150.0);
  EXPECT_NE(a[0].due_ns, c[0].due_ns);
  EXPECT_EQ(PoissonSchedule(6.0, 0.96, 16, 1).size(), 6u);
}

}  // namespace
}  // namespace perfbench
