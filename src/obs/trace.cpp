#include "obs/trace.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace lamb::obs {

namespace detail {
// Implemented in export.cpp (env parsing + exit dump).
void bootstrap_global_trace(TraceSink* sink);
}  // namespace detail

TraceSink& TraceSink::global() {
  // Intentionally leaked, mirroring MetricsRegistry::global(): the atexit
  // dump may fire after static destructors run, so the sink must never be
  // destroyed. Reachable via the static pointer, so leak checkers stay
  // quiet.
  static TraceSink* sink = [] {
    auto* s = new TraceSink();
    detail::bootstrap_global_trace(s);
    return s;
  }();
  return *sink;
}

int TraceSink::thread_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void TraceSink::record(TraceEvent event) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceSink::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  // Whole nanoseconds: the precision of a microsecond field to 3 places.
  const auto ns = [](double us) { return std::round(us * 1e3) / 1e3; };
  support::JsonWriter w;
  w.begin_object().array("traceEvents");
  for (const TraceEvent& e : events()) {
    w.begin_object(support::JsonWriter::kInline)
        .fields({{"name", e.name},
                 {"cat", e.category},
                 {"ph", "X"},
                 {"ts", ns(e.ts_us)},
                 {"dur", ns(e.dur_us)},
                 {"pid", 1},
                 {"tid", e.tid}});
    if (!e.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [key, value] : e.args) w.field(key, value);
      w.end();
    }
    w.end();
  }
  w.end().field("displayTimeUnit", "ms").end();
  return support::write_file(path, w.str());
}

Span::Span(const char* name, const char* category)
    : name_(name), category_(category) {
  metrics_ = MetricsRegistry::global().enabled();
  tracing_ = TraceSink::global().enabled();
  if (metrics_ || tracing_) start_us_ = TraceSink::global().now_us();
}

void Span::arg(const char* key, double value) {
  if (tracing_) args_.emplace_back(key, value);
}

double Span::stop() {
  if (finished_) return seconds_;
  finished_ = true;
  if (!metrics_ && !tracing_) return 0.0;
  TraceSink& sink = TraceSink::global();
  const double end_us = sink.now_us();
  seconds_ = (end_us - start_us_) / 1e6;
  if (metrics_) {
    MetricsRegistry::global()
        .histogram(std::string(name_) + ".seconds")
        .observe(seconds_);
  }
  if (tracing_) {
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.ts_us = start_us_;
    event.dur_us = end_us - start_us_;
    event.tid = TraceSink::thread_tid();
    event.args = std::move(args_);
    sink.record(std::move(event));
  }
  return seconds_;
}

}  // namespace lamb::obs
