// Seeded federation load-generation scenario for the fleet layer,
// shared by `tools/route_loadgen fleet` and bench/micro_serve, and driven
// by serve::run_scenario like the lone-service scenario.
//
// The scenario stacks both fault regimes: per-shard fault storms strike
// each shard's mesh (node/link kills, as in the serve loadgen) while a
// FleetStorm kills or hangs WHOLE SHARDS mid-traffic. Everything runs in
// virtual time, so the client-outcome stream — and its FNV digest — is a
// pure function of the config: bit-identical at any LAMBMESH_THREADS and
// across RecoveryMode::kReopen vs kLive (the restart-transparency
// anchor; only the reopen counter differs between the modes, and it is
// excluded from the digest). Wall-clock vend latencies are summarized
// beside the digest, never inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/fleet_storm.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"

namespace lamb::fleet {

struct FleetLoadgenConfig {
  FleetOptions fleet;  // seed is derived from `seed` below at run time
  std::int64_t clients = 96;
  std::int64_t ticks = 400;          // issue + chaos horizon
  std::int64_t max_cooldown = 4096;  // extra drain ticks after the horizon
  std::uint64_t seed = 20020416;
  // Per-shard mesh fault storm (each shard draws its own schedule).
  std::int64_t storm_node_kills = 4;
  std::int64_t storm_link_kills = 1;
  // Shard-level chaos.
  std::int64_t shard_kills = 2;
  std::int64_t shard_hangs = 1;
  std::int64_t min_downtime = 12;
  std::int64_t max_downtime = 24;
  serve::ClientOptions client;
};

struct FleetLoadgenResult : serve::ScenarioResult {
  // `service` sums over shards (retired generations of killed shards
  // included); storm_events counts mesh-level events on all shards.
  FleetStats fleet;
  std::int64_t chaos_events = 0;  // shard-level kill/hang events
  std::vector<int> final_epochs;  // per shard
};

FleetLoadgenResult run_fleet_loadgen(const FleetLoadgenConfig& config);

// Writes the BENCH_fleet.json document over serve::write_scenario_json:
// config echo, fleet counters and the shared sections; the burn gate is
// fleet_availability.
bool write_fleet_json(const std::string& path,
                      const FleetLoadgenConfig& config,
                      const FleetLoadgenResult& result);

}  // namespace lamb::fleet
