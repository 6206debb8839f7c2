// End-to-end completion-query benchmark. Generates the Table-1
// inputs from --seed, serves one restore::Db tenant per setup behind the
// epoll HTTP server, drives POST /v1/query open-loop and closed-loop from
// this process, checks every answer against an in-process reference, and
// prints the metrics as one JSON object on the last line of stdout.
//
//   restore_perfbench --workload cold|warm --seed N --seconds S
//                     --trace 0|1 [--spans FILE] [--smoke]
//
// perfbench/run.py builds this binary and forwards its arguments; see
// perfbench/README.md for the workloads and metrics.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "server/http.h"
#include "server/server.h"
#include "tenants.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Client connections and load-generator threads: the CPU count of the
/// machine the benchmark is specified for.
constexpr size_t kConnections = 4;
/// Fleets per run. Each fleet gets its own inputs (generated from the run's
/// seed and the fleet's index), is set up, serves an equal slice of the
/// measurement and is torn down; setup_s is the median of their set-up
/// times. Cost, answer error and even how fast a freshly trained fleet runs
/// the same inputs vary from fleet to fleet, so a run of one fleet would
/// report which fleet it drew rather than how the program performs.
constexpr int kFleets = 5;
/// A run whose generator sent its 99th-percentile request later than this
/// measured the generator, not the server: it is marked invalid.
constexpr double kMaxLagMs = 10.0;
/// Share of the measured time spent open-loop; the rest is closed-loop.
constexpr double kOpenShare = 0.6;

/// One traffic mix.
struct Workload {
  const char* name;
  bool cache;   // EngineConfig::enable_cache
  double rate;  // open-loop query arrivals per second
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"cold", false, 100.0},
    {"warm", true, 2000.0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile; 0 for no values.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = std::min(values.size() - 1,
                                static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

/// Returns freed heap memory to the OS and restarts the kernel's peak-RSS
/// (VmHWM) count, so the next PeakRssMb() covers only what follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Aggregate CPU time of the machine and the part the hypervisor took
/// (steal), in clock ticks, from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    stat >> v;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonStringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + restore::server::JsonEscape(values[i]) + '"';
  }
  return out + "]";
}

/// Open-loop latency from each request's intended send time; a failed
/// request counts as infinitely late.
std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    out.push_back(s.ok ? (s.done_s - s.intended_s) * 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// The served fleet: Dbs, their tenant registry and the server in front.
struct Service {
  Fleet fleet;
  std::unique_ptr<restore::server::TenantRegistry> tenants;
  std::unique_ptr<restore::server::HttpServer> server;

  ~Service() {
    if (server != nullptr) server->Stop();
  }
};

restore::Result<std::unique_ptr<Service>> StartService(
    const Inputs& inputs, const Workload& workload) {
  restore::EngineConfig engine = BenchEngineConfig();
  engine.enable_cache = workload.cache;
  auto service = std::make_unique<Service>();
  RESTORE_ASSIGN_OR_RETURN(service->fleet, OpenFleet(inputs, engine));
  service->tenants = std::make_unique<restore::server::TenantRegistry>();
  for (size_t i = 0; i < service->fleet.dbs.size(); ++i) {
    RESTORE_RETURN_IF_ERROR(service->tenants->Add(service->fleet.names[i],
                                                  service->fleet.dbs[i]));
  }
  restore::server::ServerConfig config;
  config.port = 0;
  config.event_threads = 1;
  config.query_threads = kConnections;
  service->server = std::make_unique<restore::server::HttpServer>(
      service->tenants.get(), config);
  RESTORE_RETURN_IF_ERROR(service->server->Start());
  return service;
}

/// Why operations failed the correctness gate, by reason.
struct GateFailures {
  std::atomic<uint64_t> transport{0}, status{0}, shape{0}, rows{0},
      stage_sum{0};
  uint64_t total() const {
    return transport + status + shape + rows + stage_sum;
  }
};

/// Everything measured across the run's fleets.
struct Totals {
  std::vector<double> setup_s;
  std::vector<Sample> open;    // untraced open-loop samples
  std::vector<double> p50_ms;  // per fleet
  std::vector<double> p99_ms;  // per fleet
  std::vector<Sample> traced;  // traced open-loop samples
  uint64_t closed_attempted = 0;
  std::vector<double> capacity_qps;  // per fleet
  std::vector<double> rss_mb;        // per-fleet peak
  std::vector<double> rel_errors_pct;
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t queued = 0;
  double train_s = 0;
  LegCounts counts;
};

/// Sets up one fleet, measures its slice of the run, and tears it down.
restore::Status RunFleet(const Args& args, const Workload& workload,
                         int fleet_index, int fleets, GateFailures* gate,
                         Tracer* tracer, Totals* totals) {
  ResetPeakRss();
  const uint64_t fleet_seed = args.seed * kFleets + fleet_index;
  RESTORE_ASSIGN_OR_RETURN(const Inputs inputs,
                           GenerateInputs(fleet_seed));
  const Clock::time_point t0 = Clock::now();
  RESTORE_ASSIGN_OR_RETURN(std::unique_ptr<Service> service,
                           StartService(inputs, workload));
  totals->setup_s.push_back(Seconds(Clock::now() - t0));
  const Fleet& fleet = service->fleet;
  const uint16_t port = service->server->port();
  totals->train_s = 0;
  for (const auto& db : fleet.dbs) {
    totals->train_s += db->total_train_seconds();
  }

  RESTORE_ASSIGN_OR_RETURN(std::vector<Reference> refs,
                           ComputeReferences(inputs, fleet));
  for (const Reference& ref : refs) {
    totals->rel_errors_pct.push_back(ref.rel_error * 100);
  }

  // Requests and the correctness gate.
  const std::vector<BenchQuery>& queries = inputs.queries;
  std::vector<std::string> requests, key_columns, value_columns;
  for (size_t q = 0; q < queries.size(); ++q) {
    requests.push_back(
        PostRequest("/v1/query/" + queries[q].tenant, queries[q].sql));
    key_columns.push_back(JsonStringArray(refs[q].key_columns));
    value_columns.push_back(JsonStringArray(refs[q].value_columns));
  }
  QueryHandler handler;
  handler.request = [&](size_t q) -> const std::string& {
    return requests[q];
  };
  handler.label = [&](size_t q) -> const std::string& {
    return queries[q].id;
  };
  handler.check = [&](size_t q, int status, const std::string& body,
                     double latency_s, StatsTail* tail) {
    if (status == 0) return ++gate->transport, false;
    if (status != 200) return ++gate->status, false;
    QueryBody parsed;
    if (!ParseQueryBody(body, queries[q].tenant, &parsed) ||
        parsed.key_columns != key_columns[q] ||
        parsed.value_columns != value_columns[q]) {
      return ++gate->shape, false;
    }
    *tail = parsed.stats;
    if (parsed.rows != refs[q].rows) return ++gate->rows, false;
    if (parsed.stats.StageSum() > latency_s) return ++gate->stage_sum, false;
    return true;
  };

  if (workload.cache) {
    // Warm the completion cache: every query once, before timing.
    std::vector<Arrival> all;
    for (size_t q = 0; q < queries.size(); ++q) all.push_back({0.0, q});
    totals->attempted += RunOpenLoop(port, all, 1, handler, nullptr).size();
  }

  const double slice = args.seconds / fleets;
  const double open_s = kOpenShare * slice;
  const double closed_s = slice - open_s;

  const restore::server::HttpServerStats before = service->server->stats();
  const std::vector<Arrival> schedule =
      PoissonSchedule(workload.rate, open_s, queries.size(), fleet_seed);
  std::vector<Sample> open =
      RunOpenLoop(port, schedule, kConnections, handler, nullptr);
  totals->attempted += open.size();
  totals->open.insert(totals->open.end(), open.begin(), open.end());
  totals->p50_ms.push_back(Percentile(LatenciesMs(open), 0.50));
  totals->p99_ms.push_back(Percentile(LatenciesMs(open), 0.99));
  if (args.trace) {
    std::vector<Sample> traced =
        RunOpenLoop(port, schedule, kConnections, handler, tracer);
    totals->attempted += traced.size();
    totals->traced.insert(totals->traced.end(), traced.begin(),
                          traced.end());
  }
  const std::vector<size_t> order =
      QueryOrder(100 * queries.size(), queries.size(), fleet_seed + 2);
  const ClosedLoopResult closed =
      RunClosedLoop(port, kConnections, closed_s, order, handler);
  const restore::server::HttpServerStats after = service->server->stats();
  totals->attempted += closed.attempted;
  totals->closed_attempted += closed.attempted;
  totals->capacity_qps.push_back(closed.succeeded / closed.seconds);
  totals->shed += (after.queries_shed_global + after.queries_shed_tenant) -
                  (before.queries_shed_global + before.queries_shed_tenant);
  totals->queued += after.admission_queued - before.admission_queued;

  totals->rss_mb.push_back(PeakRssMb());

  if (args.trace && fleet_index + 1 == fleets) {
    RESTORE_RETURN_IF_ERROR(RunInProcessLeg(
        inputs, fleet,
        workload.cache ? restore::CachePolicy::kDefault
                       : restore::CachePolicy::kBypass,
        tracer, kConnections, &totals->counts));
  }
  return restore::Status::OK();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(const Totals& t) {
  return {
      {"setup_s", Percentile(t.setup_s, 0.5), "s"},
      {"query_p50_ms", Percentile(t.p50_ms, 0.5), "ms"},
      {"capacity_qps", Percentile(t.capacity_qps, 0.5), "1/s"},
      {"rel_error_pct", Percentile(t.rel_errors_pct, 0.5), "%"},
      {"peak_rss_mb", Percentile(t.rss_mb, 0.5), "MB"},
  };
}

std::vector<Metric> LayerMetrics(const Totals& t, const Tracer& tracer,
                                 double lag_p99_ms) {
  const std::vector<Span> spans = tracer.Spans();
  uint64_t hits = 0, lookups = 0;
  for (const Sample& s : t.traced) {
    hits += s.tail.cache_hits;
    lookups += s.tail.cache_hits + s.tail.cache_misses;
  }
  const auto span_ms = [&](const char* name) {
    return MedianSpanMs(spans, name);
  };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"server.overhead_ms", span_ms("server.self"), "ms"},
      {"server.shed", count(t.shed), "count"},
      {"server.admission_queued", count(t.queued), "count"},
      {"exec.parse_ms", span_ms("exec.parse"), "ms"},
      {"exec.plan_ms", span_ms("exec.plan"), "ms"},
      {"exec.aggregate_ms", span_ms("exec.aggregate"), "ms"},
      {"exec.session_execute_ms", span_ms("inproc.session_execute"), "ms"},
      {"exec.classical_ms", span_ms("inproc.execute_sql"), "ms"},
      {"restore.selection_ms", span_ms("restore.selection"), "ms"},
      {"restore.sample_ms", span_ms("restore.sample"), "ms"},
      {"restore.complete_path_ms", span_ms("inproc.complete_path_join"),
       "ms"},
      {"nn.synthesize_hop_ms", span_ms("inproc.synthesize_hop"), "ms"},
      {"nn.tuple_factor_ms", span_ms("inproc.tuple_factor"), "ms"},
      {"restore.tuples_completed", count(t.counts.tuples_completed),
       "count"},
      {"restore.models_consulted", count(t.counts.models_consulted),
       "count"},
      {"restore.train_s", t.train_s, "s"},
      {"restore.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio"},
      {"restore.cache_lookups", count(lookups), "count"},
      {"restore.refresh_ms", span_ms("inproc.refresh_stale_models"), "ms"},
      {"restore.models_refreshed", count(t.counts.models_refreshed),
       "count"},
      {"storage.append_ms", span_ms("inproc.db_append"), "ms"},
      {"loadgen.lag_ms", lag_p99_ms, "ms"},
      {"trace.overhead_ms",
       Percentile(LatenciesMs(t.traced), 0.5) -
           Percentile(LatenciesMs(t.open), 0.5),
       "ms"},
  };
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const int fleets = args.smoke ? 1 : kFleets;
  const CpuTicks ticks_before = ReadCpuTicks();
  GateFailures gate;
  Tracer tracer(kConnections + 1);
  Totals totals;
  for (int f = 0; f < fleets; ++f) {
    restore::Status s =
        RunFleet(args, *workload, f, fleets, &gate, &tracer, &totals);
    if (!s.ok()) {
      std::fprintf(stderr, "fleet %d: %s\n", f, s.ToString().c_str());
      return 1;
    }
  }
  if (args.trace && !args.spans.empty() &&
      !tracer.WriteJsonLines(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }

  std::vector<double> lag_ms;
  for (const Sample& s : totals.open) lag_ms.push_back(s.lag_s * 1e3);
  const double lag_p99 = Percentile(lag_ms, 0.99);
  const bool valid = lag_p99 <= kMaxLagMs;
  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(totals, tracer, lag_p99)
                 : EndToEndMetrics(totals);

  // Steal is CPU time the hypervisor gave to other guests: the share of
  // the run a noisy host took away, printed so slow runs can be told apart
  // from slow code.
  const CpuTicks ticks_after = ReadCpuTicks();
  const double steal_pct =
      ticks_after.total > ticks_before.total
          ? 100.0 * (ticks_after.steal - ticks_before.steal) /
                (ticks_after.total - ticks_before.total)
          : 0.0;
  const uint64_t failed = gate.total();
  const bool correct = failed == 0 && valid;
  std::fprintf(
      stderr,
      "workload=%s seed=%llu rate=%.0f/s fleets=%d open=%zu closed=%llu "
      "attempted=%llu failed=%llu (transport=%llu status=%llu shape=%llu "
      "rows=%llu stage_sum=%llu) lag_p99=%.3fms steal=%.1f%%%s\n",
      workload->name, static_cast<unsigned long long>(args.seed),
      workload->rate,
      fleets, totals.open.size(),
      static_cast<unsigned long long>(totals.closed_attempted),
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(gate.transport.load()),
      static_cast<unsigned long long>(gate.status.load()),
      static_cast<unsigned long long>(gate.shape.load()),
      static_cast<unsigned long long>(gate.rows.load()),
      static_cast<unsigned long long>(gate.stage_sum.load()), lag_p99,
      steal_pct, valid ? "" : " INVALID: generator ran late");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  // The tail is printed but not a result metric: on a shared VM it moved
  // with host stalls by far more than any regression bound allows.
  std::fprintf(stderr, "  %-28s %14.4f ms (not a result metric)\n",
               "query_p99_ms", Percentile(totals.p99_ms, 0.5));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; a latency percentile reached by failed
    // requests (which count as infinitely late) prints as the largest
    // finite double.
    const double v = std::isfinite(metrics[i].value)
                         ? metrics[i].value
                         : std::numeric_limits<double>::max();
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: restore_perfbench --workload cold|warm --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] [--smoke]\n");
    return 2;
  }
  return perfbench::Run(args);
}
