#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using tsfm::serve::Client;
using tsfm::serve::Frame;
using tsfm::serve::MessageType;

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Raises `stop` at `deadline` unless cancelled first; a raised stop makes a
// connection waiting for a reply give up with a timeout.
class Watchdog {
 public:
  Watchdog(std::atomic<bool>* stop, Clock::time_point deadline)
      : thread_([this, stop, deadline] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_until(lock, deadline, [this] { return cancelled_; })) {
            stop->store(true);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool cancelled_ = false;
  std::thread thread_;
};

std::optional<Client> Connect(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) return std::nullopt;
  return std::move(client).value();
}

// Sends one classify request and classifies the reply.
Outcome Call(Client* client, uint64_t id, const std::string& payload,
             int64_t expected, const std::atomic<bool>* stop) {
  Frame request{MessageType::kClassifyRequest, id, payload};
  if (!tsfm::serve::WriteFrame(client->fd(), request).ok()) {
    return Outcome::kError;
  }
  Frame reply;
  const tsfm::Status s = tsfm::serve::ReadFrame(client->fd(), &reply, stop);
  if (!s.ok()) {
    return s.code() == tsfm::StatusCode::kResourceExhausted ? Outcome::kTimeout
                                                            : Outcome::kError;
  }
  if (reply.request_id != id) return Outcome::kError;
  if (reply.type == MessageType::kBusy) return Outcome::kBusy;
  if (reply.type != MessageType::kClassifyResponse) return Outcome::kError;
  auto labels = tsfm::serve::DecodeLabelsPayload(reply.payload);
  if (!labels.ok() || labels->size() != 1) return Outcome::kError;
  return (*labels)[0] == expected ? Outcome::kOk : Outcome::kMismatch;
}

// One connection's request loop state: reconnects after a broken exchange,
// since a timed-out or failed request may leave a stale reply on the socket.
struct Connection {
  int port = 0;
  std::optional<Client> client;
  uint64_t next_id = 1;

  Outcome Send(const Target& target, int32_t sample,
               const std::atomic<bool>* stop) {
    if (!client.has_value()) client = Connect(port);
    if (!client.has_value()) return Outcome::kError;
    const Outcome outcome =
        Call(&*client, next_id++, (*target.payloads)[sample],
             (*target.labels)[sample], stop);
    if (outcome == Outcome::kError || outcome == Outcome::kTimeout) {
      client.reset();
    }
    return outcome;
  }
};

std::vector<Connection> OpenConnections(int port, int conns) {
  std::vector<Connection> out(static_cast<size_t>(conns));
  for (Connection& c : out) {
    c.port = port;
    c.client = Connect(port);
  }
  return out;
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kBusy:
      return "busy";
    case Outcome::kError:
      return "error";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kMismatch:
      return "mismatch";
  }
  return "unknown";
}

std::vector<Scheduled> PoissonSchedule(double rate, double seconds,
                                       int32_t pool, uint64_t seed) {
  // Given their count, the arrival times of a Poisson process are
  // independent and uniform over the interval. Fixing the count keeps the
  // offered load the same in every run: with a free count, none-wide's
  // 3.6 s mid phase carried 58-87 requests depending on the seed, and its
  // median latency followed.
  tsfm::Rng rng(seed);
  std::vector<Scheduled> out(static_cast<size_t>(std::llround(rate * seconds)));
  for (Scheduled& s : out) {
    s.due_ns = static_cast<int64_t>(rng.Uniform() * seconds * 1e9);
    s.sample = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(pool)));
  }
  std::sort(out.begin(), out.end(),
            [](const Scheduled& a, const Scheduled& b) { return a.due_ns < b.due_ns; });
  return out;
}

std::vector<Record> RunOpenLoop(const Target& target,
                                const std::vector<Scheduled>& schedule,
                                int conns) {
  std::vector<Record> records(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    records[i].due_ns = schedule[i].due_ns;
    records[i].sample = schedule[i].sample;
  }
  if (schedule.empty()) return records;
  std::vector<Connection> connections = OpenConnections(target.port, conns);
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  {
    Watchdog watchdog(&stop,
                      t0 + std::chrono::nanoseconds(schedule.back().due_ns) +
                          std::chrono::milliseconds(target.grace_ms));
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = connections[static_cast<size_t>(c)];
        while (!stop.load()) {
          const size_t i = next.fetch_add(1);
          if (i >= records.size()) break;
          Record& r = records[i];
          std::this_thread::sleep_until(t0 +
                                        std::chrono::nanoseconds(r.due_ns));
          if (stop.load()) break;
          r.conn = c;
          r.send_ns = NsSince(t0);
          r.outcome = conn.Send(target, r.sample, &stop);
          r.done_ns = NsSince(t0);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  return records;
}

std::vector<Record> RunClosedLoop(const Target& target, int conns,
                                  double seconds, uint64_t seed) {
  std::vector<Connection> connections = OpenConnections(target.port, conns);
  std::vector<std::vector<Record>> per_conn(static_cast<size_t>(conns));
  std::atomic<bool> stop{false};
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  const auto t0 = Clock::now();
  {
    Watchdog watchdog(&stop, t0 + std::chrono::nanoseconds(end_ns) +
                                 std::chrono::milliseconds(target.grace_ms));
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = connections[static_cast<size_t>(c)];
        tsfm::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c));
        const auto pool = static_cast<uint64_t>(target.payloads->size());
        while (!stop.load() && NsSince(t0) < end_ns) {
          Record r;
          r.sample = static_cast<int32_t>(rng.UniformInt(pool));
          r.conn = c;
          r.due_ns = r.send_ns = NsSince(t0);
          r.outcome = conn.Send(target, r.sample, &stop);
          r.done_ns = NsSince(t0);
          per_conn[static_cast<size_t>(c)].push_back(r);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<Record> records;
  for (const auto& rs : per_conn) records.insert(records.end(), rs.begin(), rs.end());
  return records;
}

int64_t CountOk(const std::vector<Record>& records) {
  int64_t ok = 0;
  for (const Record& r : records) {
    if (r.outcome == Outcome::kOk) ++ok;
  }
  return ok;
}

}  // namespace perfbench
