// Span tracing with Chrome-trace-format export.
//
// A Span is an RAII timer: construction stamps a start time, destruction
// (or stop()) records the duration into the global MetricsRegistry as a
// "<name>.seconds" histogram and appends a complete event ("ph":"X") to
// the global TraceSink. The sink serializes to the Chrome trace event
// format, so a dump loads directly in chrome://tracing or Perfetto
// (ui.perfetto.dev); events on the same thread nest by time containment,
// which renders nested Spans as a flame graph — e.g. one span tree per
// MachineManager::reconfigure() with the solver phases inside it.
//
// When neither metrics nor tracing is enabled, constructing a Span reads
// no clock and records nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lamb::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   // start, microseconds since the sink's epoch
  double dur_us = 0.0;  // duration in microseconds
  int tid = 0;          // stable small id per recording thread
  std::vector<std::pair<std::string, double>> args;
};

class TraceSink {
 public:
  TraceSink() : epoch_(std::chrono::steady_clock::now()) {}
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // The process-wide sink. First use reads LAMBMESH_TRACE and, when set,
  // enables recording and schedules a write at exit (obs/export.hpp).
  static TraceSink& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Microseconds since the sink was constructed (monotonic clock).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Stable per-thread id for the "tid" field (assigned on first use).
  static int thread_tid();

  void record(TraceEvent event);
  std::vector<TraceEvent> events() const;  // snapshot copy
  void clear();

  // Chrome trace event format JSON ({"traceEvents":[...]}); false when
  // the file cannot be opened, written or closed.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// RAII scope timer feeding both the metrics registry and the trace sink.
class Span {
 public:
  explicit Span(const char* name, const char* category = "lambmesh");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  // Attaches a key/value pair to the trace event (no-op when not tracing).
  void arg(const char* key, double value);

  // Ends the span early; returns the measured seconds (0 when inert).
  // Idempotent — the destructor will not record again.
  double stop();

 private:
  const char* name_;
  const char* category_;
  bool metrics_ = false;
  bool tracing_ = false;
  bool finished_ = false;
  double start_us_ = 0.0;
  double seconds_ = 0.0;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace lamb::obs
