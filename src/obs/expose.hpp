// Live exposition: Prometheus-text rendering of a MetricsRegistry and a
// minimal embedded HTTP server surfacing it while a run is in flight
// (docs/OBSERVABILITY.md "Live exposition & flight recorder").
//
// Endpoints:
//   /metrics   Prometheus text format 0.0.4 (counters as *_total,
//              gauges, histograms with cumulative le buckets)
//   /healthz   "ok\n", 200 — liveness for the CI scrape-smoke lane
//   /slo       JSON snapshot of every declared objective and its burn
//   /recorder  JSON tail of the flight-recorder ring (?n=K, default 64)
//
// The server is deliberately tiny: blocking POSIX sockets, one
// background accept thread serving one connection at a time, each with
// a 1 s deadline (so an idle peer cannot stall later scrapes), HTTP/1.1
// with Connection: close. It exists
// so an operator can point curl or a Prometheus scraper at a running
// fault_storm — not to be a web framework. Scrapes only read atomics
// and registry snapshots; they never touch simulation state, so trial
// digests are bit-identical with the server enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"

namespace lamb::obs {

// Renders the registry in Prometheus text exposition format 0.0.4.
// Metric names gain the "lambmesh_" prefix, dots become underscores,
// and counters gain the "_total" suffix. Deterministic: name-sorted,
// fixed formatting.
std::string render_prometheus(const MetricsRegistry& registry);

// "reconfigure.ms" -> "lambmesh_reconfigure_ms" (invalid chars -> '_').
std::string prometheus_name(std::string_view name);
// Escapes \, ", and newline for label values and HELP text.
std::string prometheus_escape(std::string_view text);

// Parses a --serve / LAMBMESH_SERVE spec: ":9464", "9464",
// "127.0.0.1:9464". Empty host binds INADDR_ANY; port 0 asks the OS
// for an ephemeral port (tests). Returns false on malformed input.
bool parse_serve_spec(const std::string& spec, std::string* host, int* port);

class ExposeServer {
 public:
  // Sources are borrowed and must outlive the server. Null slo/recorder
  // disable their endpoints (404).
  ExposeServer(const MetricsRegistry* registry, const SloTracker* slo,
               FlightRecorder* recorder);
  ~ExposeServer();
  ExposeServer(const ExposeServer&) = delete;
  ExposeServer& operator=(const ExposeServer&) = delete;

  // Binds, listens, and starts the accept thread. Returns false with
  // *err filled on failure. Safe to call once.
  bool start(const std::string& host, int port, std::string* err = nullptr);
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const { return port_; }  // actual port (after port-0 bind)

  // Pure request → response body/status mapping, exposed so unit tests
  // can exercise routing without sockets. `target` is the request path
  // plus optional query string.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  Response handle(const std::string& target) const;

 private:
  void serve_loop();
  void handle_connection(int fd);

  const MetricsRegistry* registry_;
  const SloTracker* slo_;
  FlightRecorder* recorder_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

// Starts the process-wide server over the global registry / SLO tracker
// / flight recorder, once. Called from io::apply_process_flags for
// `--serve SPEC` or LAMBMESH_SERVE. Returns the server (running or not)
// for port queries; never returns null after the first call.
ExposeServer* serve_global(const std::string& spec, std::string* err = nullptr);

}  // namespace lamb::obs
