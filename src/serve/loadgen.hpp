// Seeded virtual-time load generation, shared by tools/route_loadgen
// (`run` and `fleet` commands) and bench/micro_serve.
//
// run_scenario is the one scenario loop: per tick the scenario's faults
// strike, the backend drains its queues, and every client steps in id
// order — thousands of concurrent clients with zero threads, so the
// request-outcome stream is a pure function of the config. The FNV
// digest over that stream is the CI determinism anchor: it must be
// bit-identical under any LAMBMESH_THREADS (the parallel pool only runs
// inside the solver, which is bit-identical at any width). Wall-clock
// vend latencies are summarized beside the digest but never folded into
// it. run_loadgen is the lone-service scenario; fleet/loadgen drives its
// federation scenario through the same loop.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "serve/client.hpp"
#include "serve/route_service.hpp"
#include "support/fnv1a.hpp"
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
  std::uint64_t digest() const { return digest_.h; }
  // Quantiles of the served vends' latency, in seconds.
  support::QuantileSummary vend_latency();

 private:
  OutcomeCounts counts_;
  support::Fnv1a digest_;
  std::vector<double> latencies_;
};

// What every scenario reports.
struct ScenarioResult : OutcomeCounts {
  // Response-level counters (retries count each submission).
  ServiceStats service;
  std::int64_t storm_events = 0;  // mesh-level fault events
  std::int64_t cooldown_used = 0;
  std::int64_t final_queue_depth = 0;  // 0 = queues fully drained
  // Guarantee violations: covered pairs of a certified epoch that failed
  // to route (ServeStatus::kError). The headline zero.
  std::int64_t failed_requests = 0;
  std::uint64_t digest = 0;
  support::QuantileSummary vend_latency;  // seconds, served vends only
};

// A scenario's own steps; run_scenario owns their order.
struct ScenarioSteps {
  std::int64_t horizon = 1;       // issue horizon: draining starts here
  std::int64_t max_cooldown = 0;  // extra drain ticks after the horizon
  std::function<void(std::int64_t t)> strike;  // the faults due at t
  std::function<std::vector<RouteService::Drained>(std::int64_t t)> advance;
  std::function<bool()> quiescent;  // nothing queued or about to publish
};

// Runs the scenario tick by tick: strike(t), advance(t) with each drained
// response handed to its client, then every client steps in id order.
// From the horizon on the clients drain; the run stops once the backend
// is quiescent and every client settled, or after max_cooldown ticks.
// Every terminal outcome feeds `stream`. Returns cooldown_used.
std::int64_t run_scenario(const ScenarioSteps& steps,
                          std::vector<Client>* clients, OutcomeStream* stream);

// Closes a scenario into `result`: the stream's counts, the backend's end
// state, and the digest over the stream, the shared totals and then
// `totals` — folded in so a dropped-versus-shed misclassification cannot
// cancel out across the stream.
void finish_scenario(OutcomeStream* stream, const ServiceStats& service,
                     std::int64_t queue_depth,
                     const std::vector<std::int64_t>& totals,
                     ScenarioResult* result);

struct LoadgenResult : ScenarioResult {
  std::int64_t reconfigures = 0;  // epochs published after the first
  int final_epoch = 0;
  std::int64_t survivors = 0;
};

LoadgenResult run_loadgen(const LoadgenConfig& config);

// Prints `"key": value,` lines of a scenario document.
using JsonFields =
    std::initializer_list<std::pair<const char*, std::int64_t>>;
void json_fields(std::FILE* out, JsonFields fields);

// Writes a BENCH_serve/BENCH_fleet document: `"bench": name`, the lines
// `fields` prints (config echo and the scenario's own counters, each a
// complete `"key": value,` line), then the shared outcome/response
// counts, digest, vend-latency quantiles, SLO snapshot, machine info,
// and the gates array tools/check_bench_gates.py asserts on —
// failed_requests == 0, final_queue_depth == 0, and `burn_metric` <= 1.
// Returns false when the file cannot be opened or written.
bool write_scenario_json(const std::string& path, const char* name,
                         const std::function<void(std::FILE*)>& fields,
                         const ScenarioResult& r, const char* burn_metric);

// The BENCH_serve.json document, over write_scenario_json.
bool write_serve_json(const std::string& path, const LoadgenConfig& config,
                      const LoadgenResult& result);

}  // namespace lamb::serve
