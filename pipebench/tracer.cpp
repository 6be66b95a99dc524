#include "tracer.hpp"

#include <cstdio>

namespace pipebench {

void Tracer::set_enabled(bool on) {
  enabled_ = on;
  lamb::obs::TraceSink::global().set_enabled(on);
}

int Tracer::begin(const char* name, std::int64_t id, double start_us) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.id = id;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index, double end_us) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = end_us;
  // Spans close innermost first; pop down to (and including) this one.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<lamb::obs::TraceEvent>& program) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%lld,\"parent\":%d}}",
                 first ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                 static_cast<long long>(s.id), s.parent);
    first = false;
  }
  // Program span names are string literals of the library; the bench
  // puts them on their own track so nesting is by time containment.
  for (const lamb::obs::TraceEvent& e : program) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":2}",
                 first ? "" : ",", e.name.c_str(), e.category.c_str(),
                 e.ts_us, e.dur_us);
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace pipebench
