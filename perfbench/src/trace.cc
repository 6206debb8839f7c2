#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "http_client.h"
#include "server/http.h"

namespace perfbench {

void Tracer::AddQuery(size_t thread, const std::string& label,
                      double intended_s, double sent_s, double done_s,
                      const StatsTail& tail) {
  const uint64_t id = NextId();
  std::vector<Span>& out = buffers_[thread];
  out.push_back({id, "client.query", "", intended_s, done_s - intended_s,
                 label});
  out.push_back({id, "loadgen.wait", "client.query", intended_s,
                 sent_s - intended_s, label});
  const double stages = tail.StageSum();
  const double self = std::max(0.0, done_s - sent_s - stages);
  out.push_back({id, "server.self", "client.query", sent_s, self, label});
  const std::pair<const char*, double> children[] = {
      {"exec.parse", tail.parse_s},
      {"exec.plan", tail.plan_s},
      {"restore.selection", tail.selection_s},
      {"restore.sample", tail.sample_s},
      {"exec.aggregate", tail.aggregate_s}};
  double at = sent_s + self;
  for (const auto& [name, dur] : children) {
    out.push_back({id, name, "client.query", at, dur, label});
    at += dur;
  }
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer) {
      std::fprintf(f,
                   "{\"trace_id\":%llu,\"span\":\"%s\",\"parent\":\"%s\","
                   "\"start_us\":%.1f,\"dur_us\":%.1f,\"label\":\"%s\"}\n",
                   static_cast<unsigned long long>(s.trace_id), s.name,
                   s.parent, s.start_s * 1e6, s.dur_s * 1e6,
                   restore::server::JsonEscape(s.label).c_str());
    }
  }
  return std::fclose(f) == 0;
}

double MedianSpanMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> durs;
  for (const Span& s : spans) {
    if (name == s.name) durs.push_back(s.dur_s * 1e3);
  }
  if (durs.empty()) return 0;
  std::nth_element(durs.begin(), durs.begin() + durs.size() / 2, durs.end());
  return durs[durs.size() / 2];
}

}  // namespace perfbench
