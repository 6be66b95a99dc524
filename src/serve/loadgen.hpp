// Seeded load-generation scenario for the serving layer, shared by
// tools/route_loadgen (the CLI) and bench/micro_serve (the bench rows).
//
// The scenario runs in virtual time: per tick the storm strikes the
// manager, due epochs publish, the service drains its queues, and every
// client steps in id order — thousands of concurrent clients with zero
// threads, so the request-outcome stream is a pure function of the
// config. The FNV digest over that stream is the CI determinism anchor:
// it must be bit-identical under any LAMBMESH_THREADS (the parallel pool
// only runs inside the solver, which is bit-identical at any width).
// Wall-clock vend latencies are summarized beside the digest but never
// folded into it. fleet/loadgen drives its federation scenario through
// the same OutcomeStream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/route_service.hpp"
#include "support/quantiles.hpp"

namespace lamb::serve {

struct LoadgenConfig {
  std::string mesh = "16x16";
  std::int64_t clients = 512;
  std::int64_t ticks = 240;          // issue horizon (storm horizon too)
  std::int64_t max_cooldown = 1024;  // extra drain ticks after the horizon
  std::uint64_t seed = 20020416;
  std::int64_t initial_node_faults = 4;
  std::int64_t storm_node_kills = 6;
  std::int64_t storm_link_kills = 2;
  std::int64_t reconfigure_ticks = 4;  // window width: begin -> publish
  ServiceOptions service;
  ClientOptions client;
};

// Terminal client outcomes, by status.
struct OutcomeCounts {
  std::int64_t outcomes = 0;
  std::int64_t served_fresh = 0;
  std::int64_t served_stale = 0;
  std::int64_t served_fallback = 0;
  std::int64_t gave_up_overloaded = 0;  // shed on every allowed attempt
  std::int64_t gave_up_rejected = 0;
  std::int64_t unroutable = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t errors = 0;
};

// A loadgen's client-outcome stream: every terminal outcome is tallied by
// status, folded into an FNV-1a digest, and, when served, its wall-clock
// vend latency is kept. Only tick-indexed integers enter the digest.
class OutcomeStream {
 public:
  void add(const Client::Outcome& outcome);
  // Folds a scenario total into the digest.
  void mix(std::uint64_t x);

  const OutcomeCounts& counts() const { return counts_; }
  std::uint64_t digest() const { return digest_; }
  // Quantiles of the served vends' latency, in seconds.
  support::QuantileSummary vend_latency();

 private:
  OutcomeCounts counts_;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::vector<double> latencies_;
};

struct LoadgenResult : OutcomeCounts {
  // Response-level counters (retries count each submission).
  ServiceStats service;
  std::int64_t storm_events = 0;
  std::int64_t reconfigures = 0;  // epochs published after the first
  std::int64_t cooldown_used = 0;
  std::int64_t final_queue_depth = 0;  // 0 = queues fully drained
  // Guarantee violations: covered pairs of a certified epoch that failed
  // to route (ServeStatus::kError). The headline zero.
  std::int64_t failed_requests = 0;
  std::uint64_t digest = 0;
  int final_epoch = 0;
  std::int64_t survivors = 0;
  support::QuantileSummary vend_latency;  // seconds, served vends only
};

LoadgenResult run_loadgen(const LoadgenConfig& config);

// Writes the BENCH_serve.json document: config echo, outcome/response
// counts, vend-latency quantiles, the SLO snapshot, machine info, and
// the gates array tools/check_bench_gates.py asserts on. Returns false
// when the file cannot be opened.
bool write_serve_json(const std::string& path, const LoadgenConfig& config,
                      const LoadgenResult& result);

}  // namespace lamb::serve
