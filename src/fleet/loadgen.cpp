#include "fleet/loadgen.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/text_format.hpp"
#include "wormhole/fault_schedule.hpp"

namespace lamb::fleet {

FleetLoadgenResult run_fleet_loadgen(const FleetLoadgenConfig& config) {
  Rng rng(config.seed);
  FleetOptions options = config.fleet;
  options.seed = rng.child_seed(0);
  FleetManager fleet(options, /*now=*/0);
  const int shards = fleet.shard_count();
  const MeshShape shape = io::parse_geometry(options.mesh);
  const std::int64_t horizon = std::max<std::int64_t>(config.ticks, 1);

  // Shard-level chaos first: the occupancy margin covers the full
  // recovery tail (heartbeat detection + cooloff + solve slot +
  // readmission), so at most one shard is ever out of SERVING for
  // chaos-induced reasons — the invariant behind failed_requests == 0.
  const std::int64_t margin = options.heartbeat_timeout +
                              options.quarantine_cooloff +
                              options.reconfigure_ticks +
                              options.recovering_ticks + 8;
  Rng chaos_rng(rng.child_seed(1));
  const FleetStorm chaos = FleetStorm::random(
      shards, config.shard_kills, config.shard_hangs, horizon,
      config.min_downtime, config.max_downtime, margin, chaos_rng);
  std::unordered_map<std::int64_t, std::vector<ShardEvent>> chaos_at;
  for (const ShardEvent& ev : chaos.events) chaos_at[ev.tick].push_back(ev);

  // Each shard draws its own mesh fault storm against its own fault set.
  std::unordered_map<std::int64_t,
                     std::vector<std::pair<int, wormhole::FaultEvent>>>
      faults_at;
  FleetLoadgenResult result;
  for (int s = 0; s < shards; ++s) {
    Rng storm_rng(rng.child_seed(2 + static_cast<std::uint64_t>(s)));
    const wormhole::FaultSchedule storm = wormhole::FaultSchedule::random_storm(
        shape, fleet.shard_manager(s)->faults(), config.storm_node_kills,
        config.storm_link_kills, horizon, storm_rng);
    for (const wormhole::FaultEvent& ev : storm.events) {
      faults_at[ev.cycle].emplace_back(s, ev);
      ++result.storm_events;
    }
  }

  std::vector<serve::Client> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (std::int64_t i = 0; i < config.clients; ++i) {
    clients.emplace_back(static_cast<std::uint64_t>(i + 1),
                         rng.child_seed(1000 + static_cast<std::uint64_t>(i)),
                         config.client, &fleet);
  }

  result.chaos_events = chaos.size();
  serve::ScenarioSteps steps;
  steps.horizon = horizon;
  steps.max_cooldown = config.max_cooldown;
  steps.strike = [&](std::int64_t t) {
    const auto chaos_due = chaos_at.find(t);
    if (chaos_due != chaos_at.end()) {
      for (const ShardEvent& ev : chaos_due->second) {
        if (ev.kind == ShardEvent::Kind::kKill) {
          fleet.kill_shard(ev.shard, t, ev.duration);
        } else {
          fleet.hang_shard(ev.shard, t, ev.duration);
        }
      }
    }
    const auto faults_due = faults_at.find(t);
    if (faults_due != faults_at.end()) {
      for (const auto& [s, ev] : faults_due->second) {
        if (ev.kind == wormhole::FaultEvent::Kind::kNode) {
          fleet.report_node_fault(s, ev.node, t);
        } else {
          fleet.report_link_fault(s, ev.node, ev.dim, ev.dir, t);
        }
      }
    }
  };
  steps.advance = [&](std::int64_t t) { return fleet.advance(t); };
  steps.quiescent = [&] { return fleet.quiescent(); };
  serve::OutcomeStream stream;
  result.cooldown_used = serve::run_scenario(steps, &clients, &stream);

  result.fleet = fleet.stats();
  for (int s = 0; s < shards; ++s) {
    result.final_epochs.push_back(fleet.epoch(s));
  }
  // Fold every recovery-mode-independent fleet counter in too: a
  // misrouted failover or a phantom quarantine must break the digest even
  // if the outcome stream happens to coincide. `reopens` is deliberately
  // excluded — it is the one counter the kReopen and kLive arms
  // legitimately disagree on.
  const FleetStats& f = result.fleet;
  std::vector<std::int64_t> totals = {
      f.routed, f.failovers, f.hedges_redirected, f.no_healthy_shard,
      f.evicted, f.kills, f.hangs, f.restarts, f.quarantines,
      f.heartbeat_timeouts, f.burn_quarantines, f.degrades, f.readmissions,
      f.windows_granted, f.window_waits};
  totals.insert(totals.end(), result.final_epochs.begin(),
                result.final_epochs.end());
  serve::finish_scenario(&stream, fleet.service_stats(), fleet.queue_depth(),
                         totals, &result);
  return result;
}

bool write_fleet_json(const std::string& path,
                      const FleetLoadgenConfig& config,
                      const FleetLoadgenResult& result) {
  const FleetOptions& o = config.fleet;
  const FleetStats& f = result.fleet;
  return serve::write_scenario_json(
      path, "fleet",
      [&](std::FILE* out) {
        std::fprintf(out,
                     "  \"mesh\": \"%s\",\n  \"seed\": %llu,\n"
                     "  \"recovery_mode\": \"%s\",\n  \"final_epochs\": [",
                     o.mesh.c_str(),
                     static_cast<unsigned long long>(config.seed),
                     o.recovery == RecoveryMode::kReopen ? "reopen" : "live");
        for (std::size_t i = 0; i < result.final_epochs.size(); ++i) {
          std::fprintf(out, "%s%d", i == 0 ? "" : ", ",
                       result.final_epochs[i]);
        }
        std::fprintf(out, "],\n");
        serve::json_fields(
            out, {{"shards", o.shards}, {"clients", config.clients},
                  {"ticks", config.ticks},
                  {"initial_node_faults", o.initial_node_faults},
                  {"storm_node_kills", config.storm_node_kills},
                  {"storm_link_kills", config.storm_link_kills},
                  {"shard_kills", config.shard_kills},
                  {"shard_hangs", config.shard_hangs},
                  {"reconfigure_ticks", o.reconfigure_ticks},
                  {"heartbeat_timeout", o.heartbeat_timeout},
                  {"quarantine_cooloff", o.quarantine_cooloff},
                  {"recovering_ticks", o.recovering_ticks},
                  {"publishes", result.service.publishes},
                  {"fleet_routed", f.routed}, {"failovers", f.failovers},
                  {"hedges_redirected", f.hedges_redirected},
                  {"no_healthy_shard", f.no_healthy_shard},
                  {"evicted", f.evicted}, {"kills", f.kills},
                  {"hangs", f.hangs}, {"restarts", f.restarts},
                  {"reopens", f.reopens}, {"quarantines", f.quarantines},
                  {"heartbeat_timeouts", f.heartbeat_timeouts},
                  {"burn_quarantines", f.burn_quarantines},
                  {"degrades", f.degrades}, {"readmissions", f.readmissions},
                  {"windows_granted", f.windows_granted},
                  {"window_waits", f.window_waits},
                  {"chaos_events", result.chaos_events}});
      },
      result, "slo.fleet_availability.burn");
}

}  // namespace lamb::fleet
