#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

// A blocking keep-alive HTTP/1.1 client connection, one request in flight,
// plus the parser of the server's query response (chunked JSON with an
// ExecStats tail).

#include <cstdint>
#include <string>

namespace perfbench {

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends `request` (a complete HTTP request) and reads one response.
  /// Returns the status code, or 0 on a transport or framing error (the
  /// connection is then closed). `*body` receives the de-chunked body.
  int RoundTrip(const std::string& request, std::string* body);

 private:
  bool Fill();
  int fd_ = -1;
  std::string buf_;  // bytes received but not yet consumed
};

/// "POST <target>" with `body` and Content-Length.
std::string PostRequest(const std::string& target, const std::string& body);

/// The ExecStats tail every query response ends with.
struct StatsTail {
  double parse_s = 0, plan_s = 0, selection_s = 0, sample_s = 0,
         aggregate_s = 0;
  uint64_t tuples_completed = 0, models_consulted = 0, cache_hits = 0,
           cache_misses = 0;
  double StageSum() const {
    return parse_s + plan_s + selection_s + sample_s + aggregate_s;
  }
};

/// A query response body split into its parts. Parsing checks the document
/// shape the server emits; `rows` is the text between "rows":[ and ].
struct QueryBody {
  std::string key_columns;    // JSON array text
  std::string value_columns;  // JSON array text
  std::string rows;
  uint64_t row_count = 0;
  StatsTail stats;
};

/// False when `body` is not a well-formed query response for `tenant`.
bool ParseQueryBody(const std::string& body, const std::string& tenant,
                    QueryBody* out);

/// Extracts the number after `"key":` in `json` (first occurrence at or
/// after `from`); false when absent.
bool FindNumber(const std::string& json, const std::string& key, double* out,
                size_t from = 0);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
