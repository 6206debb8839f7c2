#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<size_t> QueryOrder(size_t count, size_t num_queries,
                               uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<size_t> round(num_queries);
  std::iota(round.begin(), round.end(), size_t{0});
  std::vector<size_t> order;
  while (order.size() < count) {
    std::shuffle(round.begin(), round.end(), rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  order.resize(count);
  return order;
}

std::vector<Arrival> PoissonSchedule(double rate, double seconds,
                                     size_t num_queries, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<Arrival> schedule;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.push_back({t, 0});
  }
  const std::vector<size_t> order =
      QueryOrder(schedule.size(), num_queries, seed + 1);
  for (size_t i = 0; i < schedule.size(); ++i) schedule[i].query = order[i];
  return schedule;
}

std::vector<Sample> RunOpenLoop(uint16_t port,
                                const std::vector<Arrival>& schedule,
                                size_t connections, const QueryHandler& handler,
                                Tracer* tracer) {
  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      HttpConnection conn;
      std::string body;
      for (size_t i; (i = next.fetch_add(1)) < schedule.size();) {
        const Arrival& a = schedule[i];
        Sample& s = samples[i];
        s.query = a.query;
        s.intended_s = a.at_s;
        const double free_s = Since(start);
        if (free_s < a.at_s) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.at_s)));
        }
        if (!conn.connected()) conn.Connect(port);
        s.sent_s = Since(start);
        s.lag_s = s.sent_s - std::max(a.at_s, free_s);
        const int status = conn.RoundTrip(handler.request(a.query), &body);
        s.done_s = Since(start);
        s.ok = handler.check(a.query, status, body, s.done_s - s.sent_s,
                            &s.tail);
        if (tracer != nullptr) {
          const double offset = tracer->Since(start);
          tracer->AddQuery(t, handler.label(a.query), offset + s.intended_s,
                           offset + s.sent_s, offset + s.done_s, s.tail);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return samples;
}

ClosedLoopResult RunClosedLoop(uint16_t port, size_t connections,
                               double seconds,
                               const std::vector<size_t>& order,
                               const QueryHandler& handler) {
  std::atomic<uint64_t> attempted{0}, succeeded{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      HttpConnection conn;
      std::string body;
      StatsTail tail;
      size_t cursor = t * order.size() / connections;
      while (Clock::now() < stop) {
        const size_t q = order[cursor++ % order.size()];
        if (!conn.connected()) conn.Connect(port);
        const Clock::time_point sent = Clock::now();
        const int status = conn.RoundTrip(handler.request(q), &body);
        const double latency =
            std::chrono::duration<double>(Clock::now() - sent).count();
        attempted.fetch_add(1);
        if (handler.check(q, status, body, latency, &tail)) {
          succeeded.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ClosedLoopResult result;
  result.attempted = attempted.load();
  result.succeeded = succeeded.load();
  result.seconds = Since(start);
  return result;
}

}  // namespace perfbench
