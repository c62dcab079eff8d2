#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace tsfm::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Traffic-facing serve metrics live on rolling-window instruments so a
// long-lived server can answer "what is p99 / the shed rate *right now*";
// their snapshot keys are a superset of the old cumulative ones, so nothing
// downstream changes. Structural counters (connections, reloads, protocol
// errors) stay cumulative.
struct ServerMetrics {
  obs::RollingCounter* requests;
  obs::RollingCounter* responses;
  obs::RollingCounter* errors;
  obs::RollingCounter* shed;
  obs::Counter* protocol_errors;
  obs::Counter* reloads;
  obs::Counter* connections;
  obs::RollingHistogram* request_seconds;
};

ServerMetrics& Metrics() {
  auto& r = obs::Registry::Instance();
  static ServerMetrics m{r.GetRollingCounter("serve.requests"),
                         r.GetRollingCounter("serve.responses"),
                         r.GetRollingCounter("serve.errors"),
                         r.GetRollingCounter("serve.shed"),
                         r.GetCounter("serve.protocol_errors"),
                         r.GetCounter("serve.reloads"),
                         r.GetCounter("serve.connections"),
                         r.GetRollingHistogram("serve.request_seconds")};
  return m;
}

}  // namespace

Server::Server(pipeline::Registry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Result<std::unique_ptr<Server>> Server::Start(pipeline::Registry* registry,
                                              ServerOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("server needs a registry");
  }
  if (options.max_pending <= 0 || options.batch.max_batch <= 0) {
    return Status::InvalidArgument(
        "max_pending and max_batch must be positive");
  }
  std::unique_ptr<Server> server(new Server(registry, std::move(options)));
  TSFM_RETURN_IF_ERROR(server->Listen());
  pipeline::Registry* reg = server->registry_;
  const std::string name = server->options_.session_name;
  server->batcher_ = std::make_unique<MicroBatcher>(
      [reg, name] { return reg->Get(name); }, server->options_.batch);
  auto& metrics_registry = obs::Registry::Instance();
  server->latency_classify_ = metrics_registry.GetRollingHistogram(
      obs::LabeledName("serve.request.latency",
                       {{"model", name}, {"op", "classify"}}));
  server->latency_embed_ = metrics_registry.GetRollingHistogram(
      obs::LabeledName("serve.request.latency",
                       {{"model", name}, {"op", "embed"}}));
  ServerMetrics& m = Metrics();
  server->slo_ = std::make_unique<SloTracker>(
      server->options_.slo, m.request_seconds, m.requests, m.errors, m.shed);
  TSFM_ASSIGN_OR_RETURN(server->access_log_,
                        AccessLog::Open(server->options_.access_log));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::IoError("bind " + options_.host + ":" +
                        std::to_string(options_.port) + ": " +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status s =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Metrics().connections->Add(1);
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap finished handlers so a long-lived server doesn't accumulate
    // joinable-but-dead threads.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    conn->thread = std::thread([this, fd, raw] {
      Connection(fd);
      raw->done.store(true, std::memory_order_release);
    });
    conns_.push_back(std::move(conn));
  }
}

void Server::Connection(int fd) {
  while (true) {
    Frame frame;
    const Status s = ReadFrame(fd, &frame, &stop_);
    if (!s.ok()) {
      // NotFound = clean close, ResourceExhausted = drain while idle; both
      // end the connection silently. Anything else is a malformed or
      // truncated frame: count it, best-effort error reply, close — there
      // is no reliable way to resynchronize a framed stream after garbage.
      if (s.code() != StatusCode::kNotFound &&
          s.code() != StatusCode::kResourceExhausted) {
        Metrics().protocol_errors->Add(1);
        WriteFrame(fd, Frame{MessageType::kError, frame.request_id,
                             EncodeErrorPayload(s)});
      }
      break;
    }
    if (!HandleFrame(fd, std::move(frame))) break;
  }
  ::close(fd);
}

bool Server::HandleFrame(int fd, Frame frame) {
  switch (frame.type) {
    case MessageType::kPing:
      return WriteFrame(fd, Frame{MessageType::kPong, frame.request_id, ""})
          .ok();
    case MessageType::kClassifyRequest:
    case MessageType::kEmbedRequest:
      HandlePredict(fd, std::move(frame));
      return true;
    case MessageType::kReloadRequest: {
      Status status;
      auto prefix = DecodeStringPayload(frame.payload);
      if (!prefix.ok()) {
        status = prefix.status();
      } else if (!options_.reload_fn) {
        status = Status::Unimplemented("server has no reload handler");
      } else {
        status = options_.reload_fn(*prefix);
      }
      if (!status.ok()) {
        return WriteFrame(fd, Frame{MessageType::kError, frame.request_id,
                                    EncodeErrorPayload(status)})
            .ok();
      }
      Metrics().reloads->Add(1);
      return WriteFrame(fd,
                        Frame{MessageType::kReloadResponse, frame.request_id,
                              EncodeStringPayload(options_.session_name)})
          .ok();
    }
    case MessageType::kStatsRequest:
      return WriteFrame(
                 fd, Frame{MessageType::kStatsResponse, frame.request_id,
                           EncodeStringPayload(
                               obs::Registry::Instance().RenderText())})
          .ok();
    case MessageType::kMetricsRequest:
      // Live scrape: refresh the SLO gauges first so a poller sees current
      // breach state, then render the whole registry as Prometheus text.
      if (slo_ != nullptr) slo_->Evaluate(/*force=*/true);
      return WriteFrame(
                 fd,
                 Frame{MessageType::kMetricsResponse, frame.request_id,
                       EncodeStringPayload(
                           obs::Registry::Instance().RenderPrometheus())})
          .ok();
    case MessageType::kShutdownRequest:
      // Flag before ack: a client that saw the acknowledgement must observe
      // ShutdownRequested() == true.
      shutdown_requested_.store(true, std::memory_order_relaxed);
      WriteFrame(fd,
                 Frame{MessageType::kShutdownResponse, frame.request_id, ""});
      return false;
    default: {
      // A response type on the request path is a peer bug; treat it like any
      // other protocol error.
      Metrics().protocol_errors->Add(1);
      WriteFrame(fd, Frame{MessageType::kError, frame.request_id,
                           EncodeErrorPayload(Status::InvalidArgument(
                               "unexpected message type on server"))});
      return false;
    }
  }
}

void Server::HandlePredict(int fd, Frame frame) {
  // The wire-carried trace id becomes this thread's context, so the request
  // span below (and anything recorded before the batcher takes over)
  // stitches into the client's trace.
  obs::ContextScope request_ctx({frame.trace_id, 0});
  TSFM_TRACE_SPAN("serve.request");
  const auto t_start = Clock::now();
  ServerMetrics& m = Metrics();
  m.requests->Add(1);

  const bool embed = frame.type == MessageType::kEmbedRequest;
  const char* op = embed ? "embed" : "classify";
  BatchStats stats;
  auto log_request = [&](int64_t samples, const char* status) {
    if (access_log_ == nullptr) return;
    AccessLog::Entry entry;
    entry.request_id = frame.request_id;
    entry.trace_id = frame.trace_id;
    entry.batch_id = stats.batch_id;
    entry.op = op;
    entry.samples = samples;
    entry.queue_us = stats.queue_us;
    entry.execute_us = stats.execute_us;
    entry.total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - t_start)
                         .count();
    entry.status = status;
    access_log_->Record(entry);
  };

  auto request = DecodeTensorPayload(frame.payload, /*expected_ndim=*/3);
  if (!request.ok()) {
    m.protocol_errors->Add(1);
    m.errors->Add(1);
    WriteFrame(fd, Frame{MessageType::kError, frame.request_id,
                         EncodeErrorPayload(request.status())});
    log_request(0, "bad_request");
    return;
  }
  const int64_t samples = request->dim(0);

  // Admission control: shed with an explicit BUSY instead of queueing past
  // the cap — and when a live budget is configured, a tripped budget monitor
  // sheds too (the watchdog degrades to load-shedding here rather than
  // aborting the process as it does for offline runs). With no budget,
  // CheckBudget is one relaxed load.
  if (batcher_->pending_samples() + samples > options_.max_pending ||
      !obs::CheckBudget("serve.admission").ok()) {
    m.shed->Add(1);
    WriteFrame(fd, Frame{MessageType::kBusy, frame.request_id, ""});
    log_request(samples, "busy");
    slo_->Evaluate();
    return;
  }

  const RequestMeta meta{frame.request_id, frame.trace_id};
  bool ok;
  Frame response;
  response.request_id = frame.request_id;
  if (embed) {
    auto future = batcher_->SubmitEmbed(std::move(*request), meta, &stats);
    Result<Tensor> embeddings = future.get();
    ok = embeddings.ok();
    if (ok) {
      response.type = MessageType::kEmbedResponse;
      response.payload = EncodeTensorPayload(*embeddings);
    } else {
      response.type = MessageType::kError;
      response.payload = EncodeErrorPayload(embeddings.status());
    }
  } else {
    auto future = batcher_->SubmitClassify(std::move(*request), meta, &stats);
    Result<std::vector<int64_t>> labels = future.get();
    ok = labels.ok();
    if (ok) {
      response.type = MessageType::kClassifyResponse;
      response.payload = EncodeLabelsPayload(*labels);
    } else {
      response.type = MessageType::kError;
      response.payload = EncodeErrorPayload(labels.status());
    }
  }
  if (!ok) m.errors->Add(1);
  if (WriteFrame(fd, response).ok()) m.responses->Add(1);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  m.request_seconds->Observe(seconds);
  (embed ? latency_embed_ : latency_classify_)->Observe(seconds);
  log_request(samples, ok ? "ok" : "error");
  slo_->Evaluate();
}

void Server::Stop() {
  const bool was_stopping = stop_.exchange(true, std::memory_order_relaxed);
  if (!was_stopping) {
    // Order matters for the drain contract: first the batcher executes and
    // answers everything already queued (connection handlers blocked on
    // futures wake up and write their responses), then the handlers notice
    // the stop flag at the next frame boundary and exit, then everything is
    // joined. Requests that raced past the stop flag into Submit are failed
    // fast by the batcher rather than left hanging.
    if (batcher_ != nullptr) batcher_->Stop();
  }
  // Wakes AcceptLoop's poll at once instead of at its next timeout.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  while (true) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace tsfm::serve
