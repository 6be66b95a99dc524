// Exporters and environment bootstrap for the observability layer.
//
// Destinations (LAMBMESH_METRICS):
//   stderr         aligned table on stderr at process exit
//   json:<path>    JSON snapshot written to <path> at exit
//   csv:<path>     CSV snapshot written to <path> at exit
// Any other non-empty value behaves like `stderr`. LAMBMESH_TRACE=<path>
// independently enables span tracing and writes a Chrome-trace JSON to
// <path> at exit (open it in chrome://tracing or ui.perfetto.dev).
//
// The global registry/sink bootstrap themselves from these variables on
// first use, so every binary that links the instrumented libraries honors
// them without code changes. The command-line binaries also take
// `--metrics DEST` (same syntax, overriding LAMBMESH_METRICS) through
// io::apply_process_flags, which calls init().
//
// Live exposition (LAMBMESH_SERVE=<spec> or `--serve SPEC`, spec like
// ":9464") is started by io::apply_process_flags through obs/expose.hpp's
// serve_global — from main, never from inside a global()'s magic-static
// initializer, where the server thread's first scrape could re-enter the
// initializer and deadlock.
#pragma once

#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamb::obs {

// Renders every metric as an aligned table: counters (plus a derived
// `<p>.hit_rate` line for `<p>.hit` / `<p>.miss` pairs), gauges, and
// histograms with count/mean/min/max/p50/p95/p99.
void print_table(const MetricsRegistry& registry, std::FILE* out);

// Structured snapshots; return false when the file cannot be opened.
bool write_json(const MetricsRegistry& registry, const std::string& path);
bool write_csv(const MetricsRegistry& registry, const std::string& path);

// Ensures the env bootstraps ran (which also arms the flight recorder
// for LAMBMESH_FLIGHT) and, when `metrics_dest` is non-empty, enables
// collection and replaces the LAMBMESH_METRICS exit-dump destination.
void init(const std::string& metrics_dest = "");

}  // namespace lamb::obs
