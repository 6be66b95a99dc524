#include "obs/export.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

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
  std::optional<DumpDest> metrics;  // nullopt = no metrics dump
  std::string trace_path;           // empty = no trace dump
  bool atexit_registered = false;
};

ExitConfig& exit_config() {
  static ExitConfig config;
  return config;
}

void report_unwritten(bool written, const std::string& path) {
  if (!written) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
}

void dump_at_exit() {
  const ExitConfig& config = exit_config();
  if (config.metrics) {
    const MetricsRegistry& registry = MetricsRegistry::global();
    const DumpDest& dest = *config.metrics;
    if (dest.format == kDumpTable) {
      print_table(registry, stderr);
    } else {
      report_unwritten(dest.format == kDumpJson ? write_json(registry, dest.path)
                                                : write_csv(registry, dest.path),
                       dest.path);
    }
  }
  if (!config.trace_path.empty()) {
    report_unwritten(TraceSink::global().write_chrome_json(config.trace_path),
                     config.trace_path);
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
  std::optional<DumpDest> dest =
      env_dump_dest("LAMBMESH_METRICS", kMetricsDumps);
  if (!dest) return;
  exit_config().metrics = std::move(dest);
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

std::optional<DumpDest> parse_dump_dest(std::string_view spec,
                                        unsigned formats,
                                        std::string* error) {
  static constexpr std::pair<DumpFormat, std::string_view> kForms[] = {
      {kDumpTable, "stderr"}, {kDumpJson, "json:"}, {kDumpCsv, "csv:"}};
  std::string grammar;
  for (const auto& [format, prefix] : kForms) {
    if ((formats & format) == 0) continue;
    // The table takes no path; a file dump needs one.
    const bool table = format == kDumpTable;
    if (spec.starts_with(prefix) && (spec.size() > prefix.size()) != table) {
      return DumpDest{format, std::string(spec.substr(prefix.size()))};
    }
    grammar.append(grammar.empty() ? "" : " | ")
        .append(prefix)
        .append(table ? "" : "PATH");
  }
  if (error != nullptr) {
    *error = "bad destination '" + std::string(spec) + "' (expected " +
             grammar + ")";
  }
  return std::nullopt;
}

std::optional<DumpDest> env_dump_dest(const char* var, unsigned formats) {
  const std::string spec = env_string(var, "");
  if (spec.empty()) return std::nullopt;
  std::string error;
  std::optional<DumpDest> dest = parse_dump_dest(spec, formats, &error);
  if (!dest) std::fprintf(stderr, "error: %s: %s\n", var, error.c_str());
  return dest;
}

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
  support::JsonWriter w;
  w.begin_object().object("counters");
  for (const Counter* c : registry.counters()) w.field(c->name(), c->value());
  w.end().object("gauges");
  for (const Gauge* g : registry.gauges()) w.field(g->name(), g->value());
  w.end().object("histograms");
  for (const Histogram* h : registry.histograms()) {
    w.key(h->name())
        .begin_object(support::JsonWriter::kInline)
        .fields({{"count", h->count()},
                 {"sum", h->sum()},
                 {"min", h->min()},
                 {"max", h->max()}})
        .array("buckets");
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      w.record({{"le", b < bounds.size() ? support::JsonScalar(bounds[b])
                                         : support::JsonScalar("inf")},
                {"count", counts[b]}});
    }
    w.end().end();
  }
  w.end().end();
  return support::write_file(path, w.str());
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
  return support::close_written(out);
}

void init(const std::optional<DumpDest>& metrics) {
  // Touch the globals so the env bootstraps have run even when no
  // instrumented code executed yet. FlightRecorder::global() also arms
  // the LAMBMESH_FLIGHT file backing and crash handler.
  MetricsRegistry& registry = MetricsRegistry::global();
  TraceSink::global();
  FlightRecorder::global();
  SloTracker::global();
  if (!metrics) return;
  exit_config().metrics = metrics;
  registry.set_enabled(true);
  ensure_atexit();
}

}  // namespace lamb::obs
