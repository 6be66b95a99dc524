#include "obs/export.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace lamb::obs {

namespace {

// Exit-dump configuration. Written by the bootstraps (under the magic-
// static locks of global()) and by init() from main; read by the atexit
// handler.
struct ExitConfig {
  std::string metrics_dest;  // empty = no metrics dump
  std::string trace_path;    // empty = no trace dump
  bool atexit_registered = false;
};

ExitConfig& exit_config() {
  static ExitConfig config;
  return config;
}

void dump_at_exit() {
  const ExitConfig& config = exit_config();
  if (!config.metrics_dest.empty()) {
    const MetricsRegistry& registry = MetricsRegistry::global();
    const std::string_view dest = config.metrics_dest;
    if (dest.rfind("json:", 0) == 0) {
      write_json(registry, std::string(dest.substr(5)));
    } else if (dest.rfind("csv:", 0) == 0) {
      write_csv(registry, std::string(dest.substr(4)));
    } else {
      print_table(registry, stderr);
    }
  }
  if (!config.trace_path.empty()) {
    TraceSink::global().write_chrome_json(config.trace_path);
  }
}

void ensure_atexit() {
  ExitConfig& config = exit_config();
  if (config.atexit_registered) return;
  config.atexit_registered = true;
  std::atexit(dump_at_exit);
}

double histogram_rate(std::int64_t hits, std::int64_t misses) {
  const std::int64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

namespace detail {

void bootstrap_global_metrics(MetricsRegistry* registry) {
  const std::string dest = env_string("LAMBMESH_METRICS", "");
  if (dest.empty()) return;
  exit_config().metrics_dest = dest;
  registry->set_enabled(true);
  ensure_atexit();
}

void bootstrap_global_trace(TraceSink* sink) {
  const std::string path = env_string("LAMBMESH_TRACE", "");
  if (path.empty()) return;
  exit_config().trace_path = path;
  sink->set_enabled(true);
  ensure_atexit();
}

}  // namespace detail

void print_table(const MetricsRegistry& registry, std::FILE* out) {
  const auto counters = registry.counters();
  const auto gauges = registry.gauges();
  const auto histograms = registry.histograms();
  std::fprintf(out, "== lambmesh metrics %s\n",
               std::string(44, '=').c_str());
  if (!counters.empty()) {
    std::fprintf(out, "%-44s %16s\n", "counter", "value");
    for (const Counter* c : counters) {
      std::fprintf(out, "%-44s %16lld\n", c->name().c_str(),
                   static_cast<long long>(c->value()));
      // Derived hit rate after the matching `.miss` sibling of a `.hit`.
      const std::string& name = c->name();
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".miss") == 0) {
        const std::string prefix = name.substr(0, name.size() - 5);
        const auto hit = std::find_if(
            counters.begin(), counters.end(), [&](const Counter* other) {
              return other->name() == prefix + ".hit";
            });
        if (hit != counters.end()) {
          std::fprintf(out, "%-44s %16.4f\n", (prefix + ".hit_rate").c_str(),
                       histogram_rate((*hit)->value(), c->value()));
        }
      }
    }
  }
  if (!gauges.empty()) {
    std::fprintf(out, "%-44s %16s\n", "gauge", "value");
    for (const Gauge* g : gauges) {
      std::fprintf(out, "%-44s %16.4g\n", g->name().c_str(), g->value());
    }
  }
  if (!histograms.empty()) {
    std::fprintf(out, "%-36s %10s %10s %10s %10s %10s %10s %10s\n",
                 "histogram", "count", "mean", "min", "max", "p50", "p95",
                 "p99");
    for (const Histogram* h : histograms) {
      std::fprintf(out,
                   "%-36s %10lld %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g\n",
                   h->name().c_str(), static_cast<long long>(h->count()),
                   h->mean(), h->min(), h->max(), h->quantile(0.50),
                   h->quantile(0.95), h->quantile(0.99));
    }
  }
  if (counters.empty() && gauges.empty() && histograms.empty()) {
    std::fprintf(out, "(no metrics recorded)\n");
  }
}

bool write_json(const MetricsRegistry& registry, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\n  \"counters\": {", out);
  bool first = true;
  for (const Counter* c : registry.counters()) {
    std::fputs(first ? "\n    " : ",\n    ", out);
    first = false;
    std::fprintf(out, "%s: %lld", support::json_string(c->name()).c_str(),
                 static_cast<long long>(c->value()));
  }
  std::fputs("\n  },\n  \"gauges\": {", out);
  first = true;
  for (const Gauge* g : registry.gauges()) {
    std::fputs(first ? "\n    " : ",\n    ", out);
    first = false;
    std::fprintf(out, "%s: %s", support::json_string(g->name()).c_str(),
                 support::json_number(g->value()).c_str());
  }
  std::fputs("\n  },\n  \"histograms\": {", out);
  first = true;
  for (const Histogram* h : registry.histograms()) {
    std::fputs(first ? "\n    " : ",\n    ", out);
    first = false;
    std::fprintf(out,
                 "%s: {\"count\": %lld, \"sum\": %s, \"min\": %s, "
                 "\"max\": %s, \"buckets\": [",
                 support::json_string(h->name()).c_str(),
                 static_cast<long long>(h->count()),
                 support::json_number(h->sum()).c_str(),
                 support::json_number(h->min()).c_str(),
                 support::json_number(h->max()).c_str());
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (b > 0) std::fputc(',', out);
      if (b < bounds.size()) {
        std::fprintf(out, "{\"le\": %s, \"count\": %lld}",
                     support::json_number(bounds[b]).c_str(),
                     static_cast<long long>(counts[b]));
      } else {
        std::fprintf(out, "{\"le\": \"inf\", \"count\": %lld}",
                     static_cast<long long>(counts[b]));
      }
    }
    std::fputs("]}", out);
  }
  std::fputs("\n  }\n}\n", out);
  std::fclose(out);
  return true;
}

bool write_csv(const MetricsRegistry& registry, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("kind,name,value,count,sum,min,max,p50,p95,p99\n", out);
  for (const Counter* c : registry.counters()) {
    std::fprintf(out, "counter,%s,%lld,,,,,,,\n", c->name().c_str(),
                 static_cast<long long>(c->value()));
  }
  for (const Gauge* g : registry.gauges()) {
    std::fprintf(out, "gauge,%s,%.17g,,,,,,,\n", g->name().c_str(),
                 g->value());
  }
  for (const Histogram* h : registry.histograms()) {
    std::fprintf(out, "histogram,%s,,%lld,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                 h->name().c_str(), static_cast<long long>(h->count()),
                 h->sum(), h->min(), h->max(), h->quantile(0.5),
                 h->quantile(0.95), h->quantile(0.99));
  }
  std::fclose(out);
  return true;
}

void init(const std::string& metrics_dest) {
  // Touch the globals so the env bootstraps have run even when no
  // instrumented code executed yet. FlightRecorder::global() also arms
  // the LAMBMESH_FLIGHT file backing and crash handler.
  MetricsRegistry& registry = MetricsRegistry::global();
  TraceSink::global();
  FlightRecorder::global();
  SloTracker::global();
  if (metrics_dest.empty()) return;
  exit_config().metrics_dest = metrics_dest;
  registry.set_enabled(true);
  ensure_atexit();
}

}  // namespace lamb::obs
