// Bench-side spans around the calls the benchmark makes into lambmesh.
//
// Every timed call goes through Timed, which reads the clock whether or
// not tracing is on (the untraced rounds need the durations too) and, in
// a traced round, also appends a span: name, start, end, parent, and the
// event or request id it belongs to. Spans stay in memory and are written
// once, at exit, as Chrome-trace JSON together with the program's own
// obs::TraceSink events, which share the clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pipebench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    std::int64_t id = 0;
  };

  Tracer() { spans_.reserve(1 << 16); }

  // Shared with obs::TraceSink so program spans nest by time.
  static double now_us() { return lamb::obs::TraceSink::global().now_us(); }

  // Also switches the program's own span recording, so solver spans
  // land under the bench's manager.reconfigure span.
  void set_enabled(bool on);

  // Opens a span at `start_us`; returns its index, or -1 when disabled.
  int begin(const char* name, std::int64_t id, double start_us);
  void end(int index, double end_us);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace JSON: bench spans (tid 1) plus `program` events.
  bool write_chrome_json(const std::string& path,
                         const std::vector<lamb::obs::TraceEvent>& program)
      const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// One timed call. stop() returns the elapsed microseconds.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, std::int64_t id = 0)
      : tracer_(tracer), start_(Tracer::now_us()) {
    index_ = tracer_.begin(name, id, start_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    if (!stopped_) stop();
  }

  double stop() {
    const double end = Tracer::now_us();
    tracer_.end(index_, end);
    stopped_ = true;
    return end - start_;
  }

 private:
  Tracer& tracer_;
  double start_;
  int index_ = -1;
  bool stopped_ = false;
};

}  // namespace pipebench
