#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace tsfm::serve {

Result<Client> Client::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::IoError("connect " + host + ":" +
                                     std::to_string(port) + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_id_(other.next_id_),
      last_trace_id_(other.last_trace_id_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    next_id_ = other.next_id_;
    last_trace_id_ = other.last_trace_id_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Frame> Client::Call(MessageType type, std::string payload,
                           uint64_t trace_id) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  Frame request{type, next_id_++, std::move(payload)};
  request.trace_id = trace_id;
  TSFM_RETURN_IF_ERROR(WriteFrame(fd_, request));
  Frame response;
  TSFM_RETURN_IF_ERROR(ReadFrame(fd_, &response, nullptr));
  if (response.request_id != request.request_id) {
    return Status::Internal("response id " +
                            std::to_string(response.request_id) +
                            " does not match request " +
                            std::to_string(request.request_id));
  }
  // Uniform error mapping so callers only see their success type.
  if (response.type == MessageType::kError) {
    return DecodeErrorPayload(response.payload);
  }
  if (response.type == MessageType::kBusy) {
    return Status::ResourceExhausted("server busy");
  }
  return response;
}

Result<std::vector<int64_t>> Client::Classify(const Tensor& x) {
  Tensor batch = x;
  if (x.ndim() == 2) batch = x.Reshape({1, x.dim(0), x.dim(1)});
  if (batch.ndim() != 3) {
    return Status::InvalidArgument("Classify expects (N, T, D) or (T, D)");
  }
  // Each predict call mints a trace id that rides the v2 frame to the
  // server; the local client span carries the same id so the client side of
  // the round-trip stitches into the server's tree.
  last_trace_id_ = obs::NewTraceId();
  obs::ContextScope ctx({last_trace_id_, 0});
  TSFM_TRACE_SPAN("serve.client.request");
  TSFM_ASSIGN_OR_RETURN(Frame response,
                        Call(MessageType::kClassifyRequest,
                             EncodeTensorPayload(batch), last_trace_id_));
  if (response.type != MessageType::kClassifyResponse) {
    return Status::Internal("unexpected response type");
  }
  TSFM_ASSIGN_OR_RETURN(std::vector<int64_t> labels,
                        DecodeLabelsPayload(response.payload));
  if (labels.size() != static_cast<size_t>(batch.dim(0))) {
    return Status::Internal("label count does not match batch size");
  }
  return labels;
}

Result<Tensor> Client::Embed(const Tensor& x) {
  Tensor batch = x;
  if (x.ndim() == 2) batch = x.Reshape({1, x.dim(0), x.dim(1)});
  if (batch.ndim() != 3) {
    return Status::InvalidArgument("Embed expects (N, T, D) or (T, D)");
  }
  last_trace_id_ = obs::NewTraceId();
  obs::ContextScope ctx({last_trace_id_, 0});
  TSFM_TRACE_SPAN("serve.client.request");
  TSFM_ASSIGN_OR_RETURN(
      Frame response,
      Call(MessageType::kEmbedRequest, EncodeTensorPayload(batch),
           last_trace_id_));
  if (response.type != MessageType::kEmbedResponse) {
    return Status::Internal("unexpected response type");
  }
  TSFM_ASSIGN_OR_RETURN(Tensor embeddings,
                        DecodeTensorPayload(response.payload,
                                            /*expected_ndim=*/2));
  if (embeddings.dim(0) != batch.dim(0)) {
    return Status::Internal("embedding row count does not match batch size");
  }
  return embeddings;
}

Status Client::Ping() {
  TSFM_ASSIGN_OR_RETURN(Frame response, Call(MessageType::kPing, ""));
  return response.type == MessageType::kPong
             ? Status::OK()
             : Status::Internal("unexpected response type");
}

Result<std::string> Client::Reload(const std::string& prefix) {
  TSFM_ASSIGN_OR_RETURN(Frame response,
                        Call(MessageType::kReloadRequest,
                             EncodeStringPayload(prefix)));
  if (response.type != MessageType::kReloadResponse) {
    return Status::Internal("unexpected response type");
  }
  return DecodeStringPayload(response.payload);
}

Result<std::string> Client::Stats() {
  TSFM_ASSIGN_OR_RETURN(Frame response, Call(MessageType::kStatsRequest, ""));
  if (response.type != MessageType::kStatsResponse) {
    return Status::Internal("unexpected response type");
  }
  return DecodeStringPayload(response.payload);
}

Result<std::string> Client::MetricsText() {
  TSFM_ASSIGN_OR_RETURN(Frame response,
                        Call(MessageType::kMetricsRequest, ""));
  if (response.type != MessageType::kMetricsResponse) {
    return Status::Internal("unexpected response type");
  }
  return DecodeStringPayload(response.payload);
}

Status Client::Shutdown() {
  TSFM_ASSIGN_OR_RETURN(Frame response,
                        Call(MessageType::kShutdownRequest, ""));
  return response.type == MessageType::kShutdownResponse
             ? Status::OK()
             : Status::Internal("unexpected response type");
}

}  // namespace tsfm::serve
