#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open- and closed-loop load generation over a fixed number of keep-alive
// connections, one thread and one request in flight per connection.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "http_client.h"
#include "trace.h"

namespace perfbench {

/// One scheduled query: intended send time (seconds after the phase starts)
/// and the index of the query to send.
struct Arrival {
  double at_s = 0;
  size_t query = 0;
};

/// The query order: rounds of every query index in [0, num_queries), each
/// round shuffled, so each query is sent equally often (an i.i.d. pick
/// would let the mix, and so the median latency, jump from seed to seed).
/// A pure function of `seed`.
std::vector<size_t> QueryOrder(size_t count, size_t num_queries,
                               uint64_t seed);

/// Poisson arrivals at `rate` per second over `seconds`, sending the
/// queries in QueryOrder; a pure function of `seed`.
std::vector<Arrival> PoissonSchedule(double rate, double seconds,
                                     size_t num_queries, uint64_t seed);

/// The outcome of one request. Times are seconds after the phase started.
struct Sample {
  size_t query = 0;
  double intended_s = 0;
  double sent_s = 0;
  double done_s = 0;
  /// How late the generator sent: sent_s minus the later of intended_s and
  /// the moment this request's connection became free.
  double lag_s = 0;
  bool ok = false;
  StatsTail tail;
};

/// Builds the request of query `q` and names it; checks one response
/// (status, body, client-observed seconds) and fills `*tail`. The checker
/// must be safe to call from several threads.
struct QueryHandler {
  std::function<const std::string&(size_t q)> request;
  std::function<const std::string&(size_t q)> label;  // span label
  std::function<bool(size_t q, int status, const std::string& body,
                     double latency_s, StatsTail* tail)>
      check;
};

/// Sends `schedule` open-loop from `connections` threads. A request whose
/// connection is still busy at its intended time goes out as soon as the
/// connection frees; its latency still counts from the intended time.
/// `tracer` (may be null) records one client.query span per request.
std::vector<Sample> RunOpenLoop(uint16_t port,
                                const std::vector<Arrival>& schedule,
                                size_t connections,
                                const QueryHandler& handler, Tracer* tracer);

struct ClosedLoopResult {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  double seconds = 0;
};

/// Closed loop for `seconds`: each of `connections` threads sends its next
/// query as soon as the previous one answered, walking `order` from its own
/// offset.
ClosedLoopResult RunClosedLoop(uint16_t port, size_t connections,
                               double seconds,
                               const std::vector<size_t>& order,
                               const QueryHandler& handler);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
