#ifndef TSFM_SERVE_CLIENT_H_
#define TSFM_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace tsfm::serve {

/// Blocking client for the tsfm serve protocol: one request in flight at a
/// time per connection, so it is concurrency across *many* connections that
/// fills the server's micro-batches. Used by the CLI verbs
/// (`tsfm serve reload|stats|stop`), the load generator, and serve_test.
///
/// Not thread-safe; use one Client per thread.
class Client {
 public:
  static Result<Client> Connect(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Classifies a (N, T, D) batch (a single (T, D) sample is auto-lifted).
  /// A kBusy reply surfaces as ResourceExhausted("server busy").
  Result<std::vector<int64_t>> Classify(const Tensor& x);

  /// Embeds a (N, T, D) batch into (N, E); a response with another row
  /// count is an Internal error.
  Result<Tensor> Embed(const Tensor& x);

  Status Ping();

  /// Asks the server to hot-swap the bundle saved under `prefix` into its
  /// serving slot; returns the session name it was installed under.
  Result<std::string> Reload(const std::string& prefix);

  /// The server's metrics registry dump (obs RenderText format).
  Result<std::string> Stats();

  /// The server's live metrics in Prometheus text exposition format
  /// (kMetricsRequest; forces an SLO evaluation server-side first so
  /// serve.slo.* gauges are current at scrape time).
  Result<std::string> MetricsText();

  /// Requests a graceful drain; returns once the server acknowledged.
  Status Shutdown();

  /// Raw frame round-trip (exposed for protocol tests and the fuzz matrix).
  /// `trace_id` != 0 upgrades the request frame to the v2 context-carrying
  /// wire variant.
  Result<Frame> Call(MessageType type, std::string payload,
                     uint64_t trace_id = 0);

  /// Trace id minted for the most recent Classify/Embed call (0 before the
  /// first). Tests use this to find the request's spans in a trace dump.
  uint64_t last_trace_id() const { return last_trace_id_; }

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  uint64_t next_id_ = 1;
  uint64_t last_trace_id_ = 0;
};

}  // namespace tsfm::serve

#endif  // TSFM_SERVE_CLIENT_H_
