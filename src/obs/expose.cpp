#include "obs/expose.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace lamb::obs {

namespace {

// Prometheus requires a fixed-point or scientific decimal; iostream
// default formatting with max_digits10 round-trips doubles exactly.
std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string help_line(const std::string& prom_name, std::string_view raw,
                      const char* kind) {
  std::string out;
  out += "# HELP " + prom_name + " lambmesh metric " +
         prometheus_escape(raw) + "\n";
  out += "# TYPE " + prom_name + " ";
  out += kind;
  out += "\n";
  return out;
}

// Request heads at or past this size are refused with 431.
constexpr std::size_t kMaxHead = 16 * 1024;

// Splits an HTTP request line "METHOD SP target SP HTTP/x.y". False for
// anything else: a method that is not an upper-case token, a target that
// is not an absolute path, a missing version or extra fields.
bool parse_request_line(const std::string& line, std::string* method,
                        std::string* target) {
  std::istringstream in(line);
  std::string version;
  std::string extra;
  if (!(in >> *method >> *target >> version) || (in >> extra)) return false;
  const bool token = std::all_of(method->begin(), method->end(), [](char c) {
    return c >= 'A' && c <= 'Z';
  });
  return token && target->front() == '/' && version.rfind("HTTP/", 0) == 0;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Internal Server Error";
  }
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "lambmesh_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prometheus_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string render_prometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const Counter* c : registry.counters()) {
    const std::string name = prometheus_name(c->name()) + "_total";
    out += help_line(name, c->name(), "counter");
    out += name + " " + std::to_string(c->value()) + "\n";
  }
  for (const Gauge* g : registry.gauges()) {
    const std::string name = prometheus_name(g->name());
    out += help_line(name, g->name(), "gauge");
    out += name + " " + format_double(g->value()) + "\n";
  }
  for (const Histogram* h : registry.histograms()) {
    const std::string name = prometheus_name(h->name());
    out += help_line(name, h->name(), "histogram");
    // Snapshot the buckets once; the cumulative sums then agree with
    // the _count line even while writers keep observing.
    const std::vector<std::int64_t> buckets = h->bucket_counts();
    const std::vector<double>& bounds = h->bounds();
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += buckets[i];
      out += name + "_bucket{le=\"" + format_double(bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += buckets[bounds.size()];
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += name + "_sum " + format_double(h->sum()) + "\n";
    out += name + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

bool parse_serve_spec(const std::string& spec, std::string* host, int* port) {
  std::string hostpart;
  std::string portpart;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    portpart = spec;
  } else {
    hostpart = spec.substr(0, colon);
    portpart = spec.substr(colon + 1);
  }
  if (portpart.empty()) return false;
  for (const char c : portpart) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  const long parsed = std::strtol(portpart.c_str(), nullptr, 10);
  if (parsed < 0 || parsed > 65535) return false;
  *host = hostpart;
  *port = static_cast<int>(parsed);
  return true;
}

ExposeServer::ExposeServer(const MetricsRegistry* registry,
                           const SloTracker* slo, FlightRecorder* recorder)
    : registry_(registry), slo_(slo), recorder_(recorder) {}

ExposeServer::~ExposeServer() { stop(); }

bool ExposeServer::start(const std::string& host, int port,
                         std::string* err) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err) *err = "bad bind address: " + host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (err) *err = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 8) != 0) {
    if (err) *err = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void ExposeServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void ExposeServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short poll timeout bounds how long stop() waits for the thread.
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void ExposeServer::handle_connection(int fd) {
  // The accept loop serves one connection at a time, so a peer gets 1 s
  // to send its request head (scrapers send no body), and each send of
  // the response waits at most as long: an idle or slow peer is dropped
  // instead of stalling every later scrape.
  constexpr auto kDeadline = std::chrono::seconds(1);
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  std::string request;
  char buf[2048];
  // The head is complete once its blank line arrives within kMaxHead
  // bytes; a peer that closes first sent a truncated head.
  bool complete = false;
  bool closed = false;
  while (!closed) {
    const std::size_t end = request.find("\r\n\r\n");
    if (end != std::string::npos && end + 4 <= kMaxHead) {
      complete = true;
      break;
    }
    if (request.size() >= kMaxHead) break;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || stopping_.load(std::memory_order_acquire)) return;
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short slices keep stop() prompt while a peer dawdles.
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left, 100)));
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = true;
    } else {
      request.append(buf, static_cast<std::size_t>(n));
    }
  }
  std::string method;
  std::string target;
  Response resp;
  if (!complete && !closed) {
    resp.status = 431;
    resp.body = "request header fields too large\n";
  } else if (!complete ||
             !parse_request_line(request.substr(0, request.find("\r\n")),
                                 &method, &target)) {
    resp.status = 400;
    resp.body = "bad request\n";
  } else if (method != "GET") {
    resp.status = 405;
    resp.body = "method not allowed\n";
  } else {
    resp = handle(target);
  }

  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     status_text(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  const std::string full = head + resp.body;
  timeval send_timeout{};
  send_timeout.tv_sec =
      std::chrono::duration_cast<std::chrono::seconds>(kDeadline).count();
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  std::size_t sent = 0;
  while (sent < full.size()) {
    const ssize_t n =
        ::send(fd, full.data() + sent, full.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

ExposeServer::Response ExposeServer::handle(const std::string& target) const {
  std::string path = target;
  std::string query;
  const std::size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  Response resp;
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = render_prometheus(*registry_);
    return resp;
  }
  if (path == "/healthz") {
    resp.body = "ok\n";
    return resp;
  }
  if (path == "/slo" && slo_ != nullptr) {
    resp.content_type = "application/json";
    resp.body = slo_->render_json();
    return resp;
  }
  if (path == "/recorder" && recorder_ != nullptr) {
    std::size_t limit = 64;
    const std::size_t npos = query.find("n=");
    if (npos != std::string::npos) {
      const long parsed = std::strtol(query.c_str() + npos + 2, nullptr, 10);
      if (parsed > 0) limit = static_cast<std::size_t>(parsed);
    }
    support::JsonWriter w;
    w.begin_object()
        .fields({{"enabled", recorder_->enabled()},
                 {"capacity", recorder_->capacity()},
                 {"next_seq", recorder_->next_seq()}})
        .array("events");
    for (const FlightEvent& ev : recorder_->tail(limit)) write_json(w, ev);
    w.end().end();
    resp.content_type = "application/json";
    resp.body = w.str();
    return resp;
  }
  resp.status = 404;
  resp.body = "not found\n";
  return resp;
}

ExposeServer* serve_global(const std::string& spec, std::string* err) {
  // Leaked singleton; stop() at exit would race instrumented static
  // destructors for no benefit — the OS reclaims the socket.
  static ExposeServer* server = new ExposeServer(
      &MetricsRegistry::global(), &SloTracker::global(),
      &FlightRecorder::global());
  if (server->running()) return server;
  std::string host;
  int port = 0;
  if (!parse_serve_spec(spec, &host, &port)) {
    if (err) *err = "bad serve spec: " + spec;
    return server;
  }
  server->start(host, port, err);
  return server;
}

}  // namespace lamb::obs
