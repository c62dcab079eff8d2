#ifndef TSFM_SERVE_SERVER_H_
#define TSFM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "pipeline/registry.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/slo.h"

namespace tsfm::serve {

/// Server configuration (`tsfm serve` flags map 1:1 onto these).
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by Server::port().
  int port = 0;
  /// Registry name the serving session is resolved under (per batch, which
  /// is what makes `tsfm serve reload` a zero-downtime hot-swap).
  std::string session_name = "default";
  BatchOptions batch;
  /// Admission cap: classify/embed requests arriving while this many samples
  /// are already queued are shed with kBusy instead of queued. When a live
  /// budget is configured (obs::SetBudget), requests are also shed with kBusy
  /// once the budget monitor trips — the watchdog acts as an admission
  /// controller here, never as an abort.
  int64_t max_pending = 256;
  /// Handler for kReloadRequest frames: loads the fitted bundle under the
  /// given prefix and installs it under session_name. Unset = reload
  /// requests answered with Unimplemented.
  std::function<Status(const std::string& prefix)> reload_fn;
  /// SLO thresholds over the rolling 60 s window (serve/slo.h); inert when
  /// both thresholds are zero.
  SloOptions slo;
  /// Per-request JSON access log; disabled when the path is empty.
  AccessLogOptions access_log;
};

/// Multi-threaded TCP inference server over the length-prefixed frame
/// protocol (serve/protocol.h).
///
/// One thread accepts connections; each connection gets a handler thread
/// that reads one frame at a time, admits it, and hands classify/embed work
/// to the shared MicroBatcher — so concurrency across connections is what
/// fills micro-batches. Responses carry the request's id; a connection
/// handles one request at a time (responses are never interleaved).
///
/// Protocol errors (bad magic/version/type, hostile lengths, CRC mismatch)
/// are answered with a best-effort kError frame and the connection is
/// closed; the process never crashes or over-allocates on malformed input
/// (serve_test fuzzes this).
///
/// Stop() drains: the listener closes, idle connections unblock, requests
/// already queued are executed and answered, then all threads are joined.
class Server {
 public:
  /// Binds, listens, and starts the accept loop. `registry` must outlive
  /// the server.
  static Result<std::unique_ptr<Server>> Start(pipeline::Registry* registry,
                                               ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually-bound TCP port (resolves port 0).
  int port() const { return port_; }

  const ServerOptions& options() const { return options_; }

  /// True once a client's kShutdownRequest was acknowledged; the owner (CLI
  /// loop) is expected to notice and call Stop().
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Graceful drain (idempotent): stop accepting, answer every queued
  /// request, join all threads, close every socket.
  void Stop();

 private:
  Server(pipeline::Registry* registry, ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void Connection(int fd);
  /// Returns false when the connection should close after this frame.
  bool HandleFrame(int fd, Frame frame);
  void HandlePredict(int fd, Frame frame);

  pipeline::Registry* const registry_;
  const ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::unique_ptr<MicroBatcher> batcher_;
  std::unique_ptr<SloTracker> slo_;
  std::unique_ptr<AccessLog> access_log_;
  /// Per-op rolling latency, labeled with the op and this server's model
  /// (session) name: serve.request.latency{model=...,op=classify|embed}.
  obs::RollingHistogram* latency_classify_ = nullptr;
  obs::RollingHistogram* latency_embed_ = nullptr;
  std::thread accept_thread_;

  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
};

}  // namespace tsfm::serve

#endif  // TSFM_SERVE_SERVER_H_
