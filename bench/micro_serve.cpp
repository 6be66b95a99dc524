// Serving-layer microbenchmark: both route_loadgen scenarios run end to
// end, each as a sweep of arms —
//   serve: the `run` scenario (storm + reconfigurations under thousands of
//          virtual clients) at solver thread counts 1 and 4;
//   fleet: the `fleet` scenario (per-shard mesh storms plus whole-shard
//          kills/hangs) at 1/reopen, 4/reopen and 1/live.
// Each sweep holds two claims to numbers: the outcome digest is
// bit-identical across its arms (any pool width; for fleet also restart
// transparency — a shard recovered from its StateDir is outcome-identical
// to one that never died), and every covered pair of a certified epoch
// vends a route (failed_requests == 0) with the queues fully drained. The
// first arm's vend-latency quantiles are the reported rows. With
// --json PATH the results are written as a JSON document
// (BENCH_micro_serve.json in CI); the exit status is non-zero when a claim
// fails or the document cannot be written.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "fleet/loadgen.hpp"
#include "io/cli_args.hpp"
#include "serve/loadgen.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

struct Arm {
  int threads;
  const char* recovery;  // fleet arms only
  double seconds = 0.0;  // whole-scenario wall time
  serve::ScenarioResult result = {};
};

struct Sweep {
  const char* name;
  std::string workload;
  std::vector<Arm> arms;
  bool digest_stable = true;

  const serve::ScenarioResult& base() const { return arms.front().result; }
};

// Runs and times every arm of `sweep`, printing one line per arm. Returns
// whether the sweep's claims hold.
bool run_sweep(Sweep* sweep,
               const std::function<serve::ScenarioResult(const Arm&)>& run) {
  std::printf("%s: %s\n", sweep->name, sweep->workload.c_str());
  for (Arm& arm : sweep->arms) {
    par::set_threads(arm.threads);
    Stopwatch watch;
    arm.result = run(arm);
    arm.seconds = watch.seconds();
    sweep->digest_stable &= arm.result.digest == sweep->base().digest;
    std::printf("  threads=%d %-6s  %7.3f s  %6lld outcomes  "
                "digest 0x%016" PRIx64 "\n",
                arm.threads, arm.recovery ? arm.recovery : "", arm.seconds,
                static_cast<long long>(arm.result.outcomes),
                arm.result.digest);
  }
  par::set_threads(0);
  const serve::ScenarioResult& base = sweep->base();
  std::printf("  served %lld/%lld, vend p99 %.1f us, digest %s\n\n",
              static_cast<long long>(base.served_fresh + base.served_stale +
                                     base.served_fallback),
              static_cast<long long>(base.outcomes),
              base.vend_latency.p99 * 1e6,
              sweep->digest_stable ? "bit-identical" : "MISMATCH");
  return sweep->digest_stable && base.failed_requests == 0 &&
         base.final_queue_depth == 0;
}

void write_json(const std::string& path, const std::vector<Sweep>& sweeps) {
  support::BenchDoc doc("bench", "micro_serve");
  for (const Sweep& sweep : sweeps) {
    const serve::ScenarioResult& base = sweep.base();
    doc.object(sweep.name)
        .fields({{"workload", sweep.workload},
                 {"digest_stable", sweep.digest_stable ? 1 : 0},
                 {"failed_requests", base.failed_requests},
                 {"final_queue_depth", base.final_queue_depth},
                 {"outcomes", base.outcomes},
                 {"vend_p99_us", base.vend_latency.p99 * 1e6}})
        .array("results");
    for (const Arm& arm : sweep.arms) {
      char digest[19];
      std::snprintf(digest, sizeof(digest), "0x%016" PRIx64,
                    arm.result.digest);
      doc.begin_object(support::JsonWriter::kInline)
          .field("threads", arm.threads);
      if (arm.recovery) doc.field("recovery", arm.recovery);
      doc.fields({{"seconds", arm.seconds},
                  {"outcomes", arm.result.outcomes},
                  {"digest", digest}})
          .end();
    }
    doc.end().end();
    const std::string name = sweep.name;
    doc.gate_equals(name + ".digest_stable", 1)
        .gate_equals(name + ".failed_requests", 0)
        .gate_equals(name + ".final_queue_depth", 0);
  }
  doc.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const std::string json_path = args.get("json");

  serve::LoadgenConfig serve_config;
  serve_config.clients = 256;
  serve_config.ticks = 160;
  // Tight admission so the shed/backoff/hedge paths are exercised, not
  // just the fresh-route fast path.
  serve_config.service.admission.refill_per_tick = 12.0;
  serve_config.service.admission.bucket_capacity = 24.0;
  serve_config.service.admission.max_queue_depth = 32;
  serve_config.client.hedge = true;
  Sweep serve_sweep{"serve",
                    serve_config.mesh + ", " +
                        std::to_string(serve_config.clients) + " clients, " +
                        std::to_string(serve_config.ticks) + " ticks",
                    {{1, nullptr}, {4, nullptr}}};
  bool ok = run_sweep(&serve_sweep, [&](const Arm&) {
    return serve::run_loadgen(serve_config);
  });

  fleet::FleetLoadgenConfig fleet_config;
  fleet_config.fleet.state_root = "micro-fleet-state";
  fleet_config.clients = 64;
  fleet_config.ticks = 240;
  fleet_config.client.hedge = true;
  Sweep fleet_sweep{"fleet",
                    std::to_string(fleet_config.fleet.shards) + " x " +
                        fleet_config.fleet.mesh + " shards, " +
                        std::to_string(fleet_config.clients) + " clients, " +
                        std::to_string(fleet_config.ticks) + " ticks",
                    {{1, "reopen"}, {4, "reopen"}, {1, "live"}}};
  ok &= run_sweep(&fleet_sweep, [&](const Arm& arm) {
    fleet_config.fleet.recovery = std::string(arm.recovery) == "live"
                                      ? fleet::RecoveryMode::kLive
                                      : fleet::RecoveryMode::kReopen;
    return fleet::run_fleet_loadgen(fleet_config);
  });

  if (!json_path.empty()) write_json(json_path, {serve_sweep, fleet_sweep});
  return ok ? 0 : 1;
}
