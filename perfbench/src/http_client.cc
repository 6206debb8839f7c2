#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpConnection::~HttpConnection() { Close(); }

bool HttpConnection::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConnection::Fill() {
  char tmp[16384];
  const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
  if (n <= 0) return false;
  buf_.append(tmp, static_cast<size_t>(n));
  return true;
}

int HttpConnection::RoundTrip(const std::string& request, std::string* body) {
  body->clear();
  if (fd_ < 0) return 0;
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return 0;
    }
    sent += static_cast<size_t>(n);
  }
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) {
      Close();
      return 0;
    }
  }
  if (buf_.compare(0, 9, "HTTP/1.1 ") != 0) {
    Close();
    return 0;
  }
  const int status = std::atoi(buf_.c_str() + 9);
  const std::string head = buf_.substr(0, head_end + 4);
  size_t pos = head_end + 4;
  if (head.find("Transfer-Encoding: chunked") != std::string::npos) {
    while (true) {
      size_t line_end;
      while ((line_end = buf_.find("\r\n", pos)) == std::string::npos) {
        if (!Fill()) {
          Close();
          return 0;
        }
      }
      char* end = nullptr;
      const unsigned long size =
          std::strtoul(buf_.c_str() + pos, &end, 16);
      if (end != buf_.c_str() + line_end) {
        Close();
        return 0;
      }
      pos = line_end + 2;
      while (buf_.size() < pos + size + 2) {
        if (!Fill()) {
          Close();
          return 0;
        }
      }
      if (buf_.compare(pos + size, 2, "\r\n") != 0) {
        Close();
        return 0;
      }
      body->append(buf_, pos, size);
      pos += size + 2;
      if (size == 0) break;
    }
  } else {
    size_t length = 0;
    const size_t cl = head.find("Content-Length: ");
    if (cl != std::string::npos) {
      length = std::strtoul(head.c_str() + cl + 16, nullptr, 10);
    }
    while (buf_.size() < pos + length) {
      if (!Fill()) {
        Close();
        return 0;
      }
    }
    body->assign(buf_, pos, length);
    pos += length;
  }
  buf_.erase(0, pos);
  return status;
}

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

bool FindNumber(const std::string& json, const std::string& key, double* out,
                size_t from) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  const char* start = json.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

namespace {

/// Finds the end of the flat JSON array of strings starting at `at`: true
/// with `*end` one past its ']'; false when `at` holds no such array.
bool ArrayAt(const std::string& s, size_t at, size_t* end) {
  if (at >= s.size() || s[at] != '[') return false;
  bool in_string = false;
  for (size_t i = at + 1; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == ']') {
      *end = i + 1;
      return true;
    } else if (c == '[') {
      return false;
    }
  }
  return false;
}

}  // namespace

bool ParseQueryBody(const std::string& body, const std::string& tenant,
                    QueryBody* out) {
  const std::string prefix =
      "{\"tenant\":\"" + tenant + "\",\"key_columns\":";
  if (body.compare(0, prefix.size(), prefix) != 0) return false;
  size_t pos = prefix.size();
  size_t end = 0;
  if (!ArrayAt(body, pos, &end)) return false;
  out->key_columns = body.substr(pos, end - pos);
  const std::string values_key = ",\"value_columns\":";
  if (body.compare(end, values_key.size(), values_key) != 0) return false;
  pos = end + values_key.size();
  if (!ArrayAt(body, pos, &end)) return false;
  out->value_columns = body.substr(pos, end - pos);
  const std::string rows_key = ",\"rows\":[";
  if (body.compare(end, rows_key.size(), rows_key) != 0) return false;
  pos = end + rows_key.size();
  const std::string tail_key = "],\"row_count\":";
  const size_t tail = body.rfind(tail_key);
  if (tail == std::string::npos || tail < pos) return false;
  out->rows = body.substr(pos, tail - pos);
  double v = 0;
  if (!FindNumber(body, "row_count", &v, tail)) return false;
  out->row_count = static_cast<uint64_t>(v);
  const size_t stats = body.find(",\"stats\":{", tail);
  if (stats == std::string::npos || body.compare(body.size() - 2, 2, "}}")) {
    return false;
  }
  StatsTail& t = out->stats;
  bool ok = FindNumber(body, "parse_seconds", &t.parse_s, stats) &&
            FindNumber(body, "plan_seconds", &t.plan_s, stats) &&
            FindNumber(body, "selection_seconds", &t.selection_s, stats) &&
            FindNumber(body, "sample_seconds", &t.sample_s, stats) &&
            FindNumber(body, "aggregate_seconds", &t.aggregate_s, stats);
  const char* counts[4] = {"tuples_completed", "models_consulted",
                           "cache_hits", "cache_misses"};
  uint64_t* dst[4] = {&t.tuples_completed, &t.models_consulted,
                      &t.cache_hits, &t.cache_misses};
  for (int i = 0; ok && i < 4; ++i) {
    ok = FindNumber(body, counts[i], &v, stats);
    *dst[i] = static_cast<uint64_t>(v);
  }
  return ok;
}

}  // namespace perfbench
