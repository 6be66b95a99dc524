// Exporters and environment bootstrap for the observability layer.
//
// Destinations (LAMBMESH_METRICS):
//   stderr         aligned table on stderr at process exit
//   json:<path>    JSON snapshot written to <path> at exit
//   csv:<path>     CSV snapshot written to <path> at exit
// A value outside this grammar prints one error line and leaves the dump
// off. LAMBMESH_TRACE=<path> independently enables span tracing and
// writes a Chrome-trace JSON to <path> at exit (open it in
// chrome://tracing or ui.perfetto.dev). A dump that cannot be written
// prints "error: cannot write <path>" at exit.
//
// The global registry/sink bootstrap themselves from these variables on
// first use, so every binary that links the instrumented libraries honors
// them without code changes. The command-line binaries also take
// `--metrics DEST` (same syntax, overriding LAMBMESH_METRICS; a bad DEST
// exits 2) through io::apply_process_flags, which calls init().
//
// Live exposition (LAMBMESH_SERVE=<spec> or `--serve SPEC`, spec like
// ":9464") is started by io::apply_process_flags through obs/expose.hpp's
// serve_global — from main, never from inside a global()'s magic-static
// initializer, where the server thread's first scrape could re-enter the
// initializer and deadlock.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamb::obs {

// One dump destination, in the grammar LAMBMESH_METRICS,
// LAMBMESH_TELEMETRY, --metrics and --telemetry share: `stderr` (an
// aligned table), `json:PATH` or `csv:PATH`. Each dump accepts a subset.
enum DumpFormat : unsigned { kDumpTable = 1u, kDumpJson = 2u, kDumpCsv = 4u };
inline constexpr unsigned kMetricsDumps = kDumpTable | kDumpJson | kDumpCsv;
inline constexpr unsigned kTelemetryDumps = kDumpCsv;

struct DumpDest {
  DumpFormat format = kDumpTable;
  std::string path;  // empty for the table
};

// Parses `spec` against the `formats` a dump accepts. A spec outside
// them, or with an empty PATH, returns nullopt and sets `*error` (when
// non-null) to "bad destination '<spec>' (expected <grammar>)".
std::optional<DumpDest> parse_dump_dest(std::string_view spec,
                                        unsigned formats,
                                        std::string* error = nullptr);
// The destination in environment variable `var`: nullopt when it is
// unset or empty, and after one "error: <var>: ..." line on stderr when
// it does not parse.
std::optional<DumpDest> env_dump_dest(const char* var, unsigned formats);

// Renders every metric as an aligned table: counters (plus a derived
// `<p>.hit_rate` line for `<p>.hit` / `<p>.miss` pairs), gauges, and
// histograms with count/mean/min/max/p50/p95/p99.
void print_table(const MetricsRegistry& registry, std::FILE* out);

// Structured snapshots; return false when the file cannot be opened,
// written or closed.
bool write_json(const MetricsRegistry& registry, const std::string& path);
bool write_csv(const MetricsRegistry& registry, const std::string& path);

// Ensures the env bootstraps ran (which also arms the flight recorder
// for LAMBMESH_FLIGHT) and, when `metrics` is set, enables collection
// and replaces the LAMBMESH_METRICS exit-dump destination.
void init(const std::optional<DumpDest>& metrics = std::nullopt);

}  // namespace lamb::obs
