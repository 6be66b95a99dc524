// route_loadgen — seeded request-stream replay against the serving layer.
//
//   run    simulated clients ask one RouteService for survivor routes
//          while a seeded fault storm forces reconfigurations underneath.
//   fleet  clients talk to a FleetManager of manager+service shards while
//          per-shard mesh storms run AND whole shards are killed or hung;
//          the fleet fails over, quarantines, and recovers killed shards
//          through their durable state directories.
//
// Both run in virtual time through serve::run_scenario, so the outcome
// digest is a pure function of the flags: bit-identical at any --threads
// value and, for fleet, across --recovery reopen/live. The CI serve-soak
// and fleet-soak lanes gate on both.
//
// Exit status: 0 when every covered pair of a certified epoch vended a
// route (failed_requests == 0) and the queues fully drained; 1 on a
// guarantee violation; 2 on usage errors. --json writes the
// BENCH_serve.json / BENCH_fleet.json document that
// tools/check_bench_gates.py asserts on.
//
// Examples:
//   route_loadgen run --clients 2000 --ticks 400
//   route_loadgen run --rate 4 --queue-depth 8        # force shedding
//   route_loadgen run --deadline 24 --hedge --json BENCH_serve.json
//   route_loadgen fleet --fleet-shards 4 --shard-kills 3 --recovery live
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/loadgen.hpp"
#include "io/cli_args.hpp"
#include "io/serve_cli.hpp"
#include "obs/obs.hpp"
#include "serve/loadgen.hpp"
#include "support/parallel.hpp"

using namespace lamb;

namespace {

using Args = io::CliArgs;

enum Scope { kRun = 1, kFleet = 2, kBoth = kRun | kFleet };

struct Flag {
  const char* name;
  const char* arg;
  int scope;
  const char* help;  // with defaults, "(run | fleet)" where they differ
};

// The one flag table: usage text and each command's known flags.
constexpr Flag kFlags[] = {
    {"mesh", "WxH..", kBoth, "geometry, per shard; t = torus (16x16 | 8x8)"},
    {"fleet-shards", "N", kFleet, "manager+service shards (3)"},
    {"clients", "N", kBoth, "simulated concurrent clients (512 | 96)"},
    {"ticks", "T", kBoth, "issue (and chaos) horizon, ticks (240 | 400)"},
    {"seed", "S", kBoth, "master seed (20020416)"},
    {"initial-faults", "F", kBoth, "static faults, per shard (4 | 2)"},
    {"node-kills", "K", kBoth, "storm node kills, per shard (6 | 4)"},
    {"link-kills", "L", kBoth, "storm link kills, per shard (2 | 1)"},
    {"shard-kills", "K", kFleet, "whole-shard kills over the horizon (2)"},
    {"shard-hangs", "H", kFleet, "whole-shard hangs over the horizon (1)"},
    {"downtime-min", "T", kFleet, "min shard downtime, ticks (12)"},
    {"downtime-max", "T", kFleet, "max shard downtime, ticks (24)"},
    {"recovery", "MODE", kFleet,
     "reopen (restart via the StateDir) or live (parked\n"
     "                        object; must match reopen) (reopen)"},
    {"state-root", "DIR", kFleet, "durable state root (fleet-state)"},
    {"reconfigure-ticks", "W", kBoth, "begin-to-publish window, ticks (4)"},
    {"heartbeat-timeout", "T", kFleet, "missed-heartbeat quarantine (8)"},
    {"cooloff", "T", kFleet, "min ticks quarantined (16)"},
    {"recovering", "T", kFleet, "RECOVERING -> SERVING delay (8)"},
    {"staleness-cap", "C", kBoth, "stale-epoch serving limit, ticks (8)"},
    {"shards", "N", kRun, "admission shards (4)"},
    {"rate", "R", kBoth, "token-bucket refill per shard-tick (16)"},
    {"burst", "B", kRun, "token-bucket capacity (32)"},
    {"queue-depth", "D", kBoth, "bounded per-shard queue depth (64)"},
    {"period", "P", kBoth, "client ticks between requests (4)"},
    {"max-attempts", "A", kBoth, "client submissions per request (6)"},
    {"deadline", "D", kBoth, "per-request deadline, ticks; -1 none (-1)"},
    {"hedge", "", kBoth, "re-submit a first shed to another shard"},
    {"json", "PATH", kBoth, "write BENCH_serve.json / BENCH_fleet.json"},
    {"serve", "SPEC", kBoth, "serve /metrics, /healthz, /slo over HTTP"},
    {"threads", "T", kBoth, "solver threads (the digest is the same)"},
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: route_loadgen run|fleet [options]\n"
               "\n"
               "  run    one RouteService under a mesh fault storm\n"
               "  fleet  a shard fleet under mesh storms plus whole-shard\n"
               "         kills and hangs\n"
               "\n"
               "options (defaults in parens, run | fleet):\n");
  for (const Flag& flag : kFlags) {
    const std::string head = std::string(flag.name) + " " + flag.arg;
    std::fprintf(stderr, "  --%-19s %s%s\n", head.c_str(), flag.help,
                 flag.scope == kRun     ? " [run]"
                 : flag.scope == kFleet ? " [fleet]"
                                        : "");
  }
  std::exit(2);
}

// Range checks for both commands, over the flags as given (defaults are
// in range).
void validate(const Args& args) {
  const std::pair<const char*, long> minimums[] = {
      {"initial-faults", 0}, {"node-kills", 0},   {"link-kills", 0},
      {"shard-kills", 0},    {"shard-hangs", 0},  {"clients", 1},
      {"ticks", 1},          {"period", 1},       {"max-attempts", 1},
      {"shards", 1},         {"fleet-shards", 2}};
  for (const auto& [name, min] : minimums) {
    if (args.get_long(name, min) < min) {
      usage(std::string("--") + name + " must be >= " + std::to_string(min));
    }
  }
  if (args.get_double("rate", 1.0) <= 0.0) usage("--rate must be > 0");
  const fleet::FleetLoadgenConfig fleet_defaults;
  if (args.get_long("downtime-min", fleet_defaults.min_downtime) >
      args.get_long("downtime-max", fleet_defaults.max_downtime)) {
    usage("--downtime-min must be <= --downtime-max");
  }
  const std::string mode = args.get("recovery", "reopen");
  if (mode != "reopen" && mode != "live") {
    usage("--recovery must be reopen or live");
  }
}

// The scenario knobs both commands take, bound to one config's fields.
struct Shared {
  std::string& mesh;
  std::int64_t& clients;
  std::int64_t& ticks;
  std::uint64_t& seed;
  std::int64_t& initial_faults;
  std::int64_t& node_kills;
  std::int64_t& link_kills;
  std::int64_t& reconfigure_ticks;
  serve::ServiceOptions& service;
  serve::ClientOptions& client;
};

void read_shared(const Args& args, const Shared& c) {
  c.mesh = args.get("mesh", c.mesh);
  c.clients = args.get_long("clients", c.clients);
  c.ticks = args.get_long("ticks", c.ticks);
  c.seed = static_cast<std::uint64_t>(
      args.get_long("seed", static_cast<long>(c.seed)));
  c.initial_faults = args.get_long("initial-faults", c.initial_faults);
  c.node_kills = args.get_long("node-kills", c.node_kills);
  c.link_kills = args.get_long("link-kills", c.link_kills);
  c.reconfigure_ticks =
      args.get_long("reconfigure-ticks", c.reconfigure_ticks);
  c.service.staleness_cap =
      args.get_long("staleness-cap", c.service.staleness_cap);
  // --shards and --burst are run-only; main() rejects them for fleet.
  serve::AdmissionOptions& admission = c.service.admission;
  admission.shards = args.get_int("shards", admission.shards);
  admission.refill_per_tick =
      args.get_double("rate", admission.refill_per_tick);
  admission.bucket_capacity =
      args.get_double("burst", admission.bucket_capacity);
  admission.max_queue_depth =
      args.get_long("queue-depth", admission.max_queue_depth);
  c.client.issue_period = args.get_long("period", c.client.issue_period);
  c.client.max_attempts =
      args.get_int("max-attempts", c.client.max_attempts);
  c.client.deadline_ticks =
      args.get_long("deadline", c.client.deadline_ticks);
  c.client.hedge = args.has("hedge");
}

void print_outcomes(const serve::ScenarioResult& r) {
  std::printf(
      "outcomes %lld: fresh %lld, stale %lld, fallback %lld, "
      "overloaded %lld, rejected %lld, unroutable %lld, deadline %lld, "
      "errors %lld\n",
      static_cast<long long>(r.outcomes),
      static_cast<long long>(r.served_fresh),
      static_cast<long long>(r.served_stale),
      static_cast<long long>(r.served_fallback),
      static_cast<long long>(r.gave_up_overloaded),
      static_cast<long long>(r.gave_up_rejected),
      static_cast<long long>(r.unroutable),
      static_cast<long long>(r.deadline_exceeded),
      static_cast<long long>(r.errors));
}

void print_latency(const char* label, const serve::ScenarioResult& r) {
  if (r.vend_latency.count == 0) return;
  std::printf("%s us: p50 %.1f, p95 %.1f, p99 %.1f (n=%lld)\n", label,
              r.vend_latency.p50 * 1e6, r.vend_latency.p95 * 1e6,
              r.vend_latency.p99 * 1e6,
              static_cast<long long>(r.vend_latency.count));
}

// The digest line, the --json document, and the exit policy.
int report(const Args& args, const serve::ScenarioResult& r,
           const std::function<bool(const std::string&)>& write_json) {
  // Own line, fault_storm's `^digest:` convention: the soak CI lanes grep
  // and sort -u's these across LAMBMESH_THREADS values (and, for fleet,
  // across --recovery reopen/live).
  std::printf("digest: 0x%016" PRIx64 "\n", r.digest);
  if (args.has("json")) {
    const std::string path = args.get("json");
    if (!write_json(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (r.failed_requests > 0) {
    std::printf("FAILED: %lld covered request(s) of a certified epoch "
                "failed to route\n",
                static_cast<long long>(r.failed_requests));
    return 1;
  }
  if (r.final_queue_depth > 0) {
    std::printf("FAILED: %lld request(s) still queued after cooldown\n",
                static_cast<long long>(r.final_queue_depth));
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

int cmd_run(const Args& args) {
  serve::LoadgenConfig config;
  read_shared(args, {config.mesh, config.clients, config.ticks, config.seed,
                     config.initial_node_faults, config.storm_node_kills,
                     config.storm_link_kills, config.reconfigure_ticks,
                     config.service, config.client});
  const serve::LoadgenResult result = serve::run_loadgen(config);

  std::printf(
      "route_loadgen: %s, %lld clients, %lld ticks (+%lld cooldown), "
      "%lld storm events, %lld reconfigures\n",
      config.mesh.c_str(), static_cast<long long>(config.clients),
      static_cast<long long>(config.ticks),
      static_cast<long long>(result.cooldown_used),
      static_cast<long long>(result.storm_events),
      static_cast<long long>(result.reconfigures));
  print_outcomes(result);
  std::printf(
      "responses: submitted %lld, queued %lld, shed %lld, "
      "max queue depth %lld, final depth %lld\n",
      static_cast<long long>(result.service.submitted),
      static_cast<long long>(result.service.queued),
      static_cast<long long>(result.service.shed),
      static_cast<long long>(result.service.max_queue_depth),
      static_cast<long long>(result.final_queue_depth));
  print_latency("vend latency", result);
  std::printf("epoch %d, survivors %lld\n", result.final_epoch,
              static_cast<long long>(result.survivors));
  return report(args, result, [&](const std::string& path) {
    return serve::write_serve_json(path, config, result);
  });
}

int cmd_fleet(const Args& args) {
  fleet::FleetLoadgenConfig config;
  fleet::FleetOptions& options = config.fleet;
  options.state_root = args.get("state-root", "fleet-state");
  read_shared(args, {options.mesh, config.clients, config.ticks, config.seed,
                     options.initial_node_faults, config.storm_node_kills,
                     config.storm_link_kills, options.reconfigure_ticks,
                     options.service, config.client});
  options.shards = args.get_int("fleet-shards", options.shards);
  config.shard_kills = args.get_long("shard-kills", config.shard_kills);
  config.shard_hangs = args.get_long("shard-hangs", config.shard_hangs);
  config.min_downtime = args.get_long("downtime-min", config.min_downtime);
  config.max_downtime = args.get_long("downtime-max", config.max_downtime);
  const bool reopen = args.get("recovery", "reopen") == "reopen";
  options.recovery =
      reopen ? fleet::RecoveryMode::kReopen : fleet::RecoveryMode::kLive;
  options.heartbeat_timeout =
      args.get_long("heartbeat-timeout", options.heartbeat_timeout);
  options.quarantine_cooloff =
      args.get_long("cooloff", options.quarantine_cooloff);
  options.recovering_ticks =
      args.get_long("recovering", options.recovering_ticks);
  const fleet::FleetLoadgenResult result = fleet::run_fleet_loadgen(config);

  const fleet::FleetStats& f = result.fleet;
  std::printf(
      "route_loadgen fleet: %d x %s shards, %lld clients, %lld ticks "
      "(+%lld cooldown), %lld mesh faults, %lld shard events (%s)\n",
      options.shards, options.mesh.c_str(),
      static_cast<long long>(config.clients),
      static_cast<long long>(config.ticks),
      static_cast<long long>(result.cooldown_used),
      static_cast<long long>(result.storm_events),
      static_cast<long long>(result.chaos_events),
      reopen ? "reopen" : "live");
  print_outcomes(result);
  std::printf(
      "fleet: failovers %lld, hedges %lld, evicted %lld, kills %lld, "
      "hangs %lld, quarantines %lld (hb %lld, burn %lld), reopens %lld, "
      "readmissions %lld, windows %lld\n",
      static_cast<long long>(f.failovers),
      static_cast<long long>(f.hedges_redirected),
      static_cast<long long>(f.evicted), static_cast<long long>(f.kills),
      static_cast<long long>(f.hangs), static_cast<long long>(f.quarantines),
      static_cast<long long>(f.heartbeat_timeouts),
      static_cast<long long>(f.burn_quarantines),
      static_cast<long long>(f.reopens),
      static_cast<long long>(f.readmissions),
      static_cast<long long>(f.windows_granted));
  print_latency("global vend latency", result);
  std::printf("final epochs:");
  for (const int epoch : result.final_epochs) std::printf(" %d", epoch);
  std::printf("\n");
  return report(args, result, [&](const std::string& path) {
    return fleet::write_fleet_json(path, config, result);
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = Args::parse(argc, argv, {"hedge"});
    const int scope = args.command() == "run"     ? kRun
                      : args.command() == "fleet" ? kFleet
                                                  : 0;
    if (scope == 0) usage("unknown command " + args.command());
    std::vector<std::string> known;
    for (const Flag& flag : kFlags) {
      if ((flag.scope & scope) != 0) known.emplace_back(flag.name);
    }
    args.require_known(known);
    validate(args);
    if (args.has("threads")) {
      par::set_threads(args.get_int("threads", 0));
    }
  } catch (const io::ArgError& e) {
    usage(e.what());
  }
  // Helper first: obs::init's raw --serve scan defers to an already
  // running server, so the one spec resolution lives in io::serve_cli.
  if (!io::start_serve_exposition(args, "route_loadgen")) return 2;
  obs::init(argc, argv);
  try {
    return args.command() == "run" ? cmd_run(args) : cmd_fleet(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
