#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Due-time load generator for `tsfm serve`.
//
// Open loop: requests follow a seeded Poisson schedule (with a fixed count)
// and are spread over at most `conns` connections, one request in flight per connection. Every
// request is timed from the moment it was *due*, not from when it was sent,
// so a server stall (or a generator running late) shows in the latency of
// every request queued behind it. Closed loop: each connection sends its next
// request as soon as the previous one is answered.
//
// Each answer is checked against the label offline
// InferenceSession::PredictBatch gives for the same sample of the same bundle.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Outcome : int {
  kOk = 0,        // answered with the offline label
  kBusy = 1,      // server shed the request (kBusy frame)
  kError = 2,     // error frame, undecodable reply or broken connection
  kTimeout = 3,   // no reply before the phase deadline, or never sent
  kMismatch = 4,  // answered with a different label than offline predict
};

const char* OutcomeName(Outcome outcome);

/// One scheduled request: when it is due (ns after phase start) and which
/// sample of the request pool it carries.
struct Scheduled {
  int64_t due_ns = 0;
  int32_t sample = 0;
};

/// What happened to one request. Times are ns after phase start; send_ns is
/// -1 for a request that was never sent.
struct Record {
  int64_t due_ns = 0;
  int64_t send_ns = -1;
  int64_t done_ns = -1;
  int32_t sample = 0;
  int32_t conn = -1;
  Outcome outcome = Outcome::kTimeout;
};

/// Poisson arrivals at `rate` per second over `seconds`, given their count:
/// round(rate * seconds) requests at independent uniform times, in order of
/// time, each carrying a uniformly drawn sample index in [0, pool). Same
/// arguments, same schedule.
std::vector<Scheduled> PoissonSchedule(double rate, double seconds,
                                       int32_t pool, uint64_t seed);

/// The server under load and the request pool it is sent.
struct Target {
  int port = 0;
  /// Pre-encoded tensor payloads (serve::EncodeTensorPayload), one sample each.
  const std::vector<std::string>* payloads = nullptr;
  /// Offline label of each pool sample.
  const std::vector<int64_t>* labels = nullptr;
  /// Requests still unanswered this long after the last one is due count as
  /// timeouts.
  int64_t grace_ms = 5000;
};

/// Open loop over `schedule` with at most `conns` connections. Returns one
/// record per scheduled request, in schedule order.
std::vector<Record> RunOpenLoop(const Target& target,
                                const std::vector<Scheduled>& schedule,
                                int conns);

/// Closed loop: `conns` connections each send back to back for `seconds`,
/// drawing samples from a seeded stream. Records are in completion order per
/// connection, connections concatenated.
std::vector<Record> RunClosedLoop(const Target& target, int conns,
                                  double seconds, uint64_t seed);

/// Requests answered with the offline label.
int64_t CountOk(const std::vector<Record>& records);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
