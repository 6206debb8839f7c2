#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced run. Spans are kept in memory (one buffer
// per recording thread, so recording takes no lock) and written out as JSON
// lines when the run ends. Every span belongs to one request (trace id) and
// names its parent span; the program itself is not instrumented: query
// spans are rebuilt from each response's ExecStats tail, in-process spans
// time direct calls into public functions.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct StatsTail;

struct Span {
  uint64_t trace_id = 0;
  const char* name = "";
  const char* parent = "";  // "" for a root span
  double start_s = 0;       // seconds after the tracer's epoch
  double dur_s = 0;
  std::string label;        // e.g. the query id
};

class Tracer {
 public:
  explicit Tracer(size_t threads)
      : buffers_(threads), epoch_(std::chrono::steady_clock::now()) {}

  /// Seconds from the tracer's creation to `t`: the time base of every
  /// span, so spans of all phases share one timeline.
  double Since(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Add(size_t thread, Span span) {
    buffers_[thread].push_back(std::move(span));
  }

  /// Records one HTTP query: the root client.query span over
  /// [intended, done], loadgen.wait until it was sent, then the server's
  /// self time and the ExecStats stages laid end to end so they finish
  /// when the response did.
  void AddQuery(size_t thread, const std::string& label, double intended_s,
                double sent_s, double done_s, const StatsTail& tail);

  /// Every recorded span, buffers concatenated in thread order.
  std::vector<Span> Spans() const;

  /// Writes Spans() as JSON lines; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> buffers_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{0};
};

/// Median duration in milliseconds of the spans named `name` (0 if none).
double MedianSpanMs(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
