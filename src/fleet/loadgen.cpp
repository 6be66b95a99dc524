#include "fleet/loadgen.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "support/machine_info.hpp"
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
  std::int64_t storm_events = 0;
  for (int s = 0; s < shards; ++s) {
    Rng storm_rng(rng.child_seed(2 + static_cast<std::uint64_t>(s)));
    const wormhole::FaultSchedule storm = wormhole::FaultSchedule::random_storm(
        shape, fleet.shard_manager(s)->faults(), config.storm_node_kills,
        config.storm_link_kills, horizon, storm_rng);
    for (const wormhole::FaultEvent& ev : storm.events) {
      faults_at[ev.cycle].emplace_back(s, ev);
      ++storm_events;
    }
  }

  std::vector<serve::Client> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (std::int64_t i = 0; i < config.clients; ++i) {
    clients.emplace_back(static_cast<std::uint64_t>(i + 1),
                         rng.child_seed(1000 + static_cast<std::uint64_t>(i)),
                         config.client, &fleet);
  }

  FleetLoadgenResult result;
  result.storm_events = storm_events;
  result.chaos_events = chaos.size();
  serve::OutcomeStream stream;
  std::vector<serve::Client::Outcome> outcomes;
  bool draining = false;
  std::int64_t t = 0;
  while (true) {
    if (t >= horizon && !draining) {
      draining = true;
      for (serve::Client& client : clients) client.set_draining(true);
    }
    if (draining) {
      bool settled = fleet.quiescent();
      if (settled) {
        for (const serve::Client& client : clients) {
          if (!client.settled()) {
            settled = false;
            break;
          }
        }
      }
      if (settled || t >= horizon + config.max_cooldown) break;
    }

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

    outcomes.clear();
    for (const serve::RouteService::Drained& drained : fleet.advance(t)) {
      clients[static_cast<std::size_t>(drained.request.client_id - 1)]
          .on_response(drained.request, drained.response, t, &outcomes);
    }
    for (serve::Client& client : clients) client.step(t, &outcomes);

    for (const serve::Client::Outcome& outcome : outcomes) {
      stream.add(outcome);
    }
    ++t;
  }

  static_cast<serve::OutcomeCounts&>(result) = stream.counts();
  result.cooldown_used = std::max<std::int64_t>(0, t - horizon);
  result.service = fleet.service_stats();
  result.fleet = fleet.stats();
  result.final_queue_depth = fleet.queue_depth();
  result.failed_requests = result.service.errors;
  for (int s = 0; s < shards; ++s) {
    result.final_epochs.push_back(fleet.epoch(s));
  }
  // Fold the totals and every recovery-mode-independent fleet counter in
  // too: a misrouted failover or a phantom quarantine must break the
  // digest even if the outcome stream happens to coincide. `reopens` is
  // deliberately excluded — it is the one counter the kReopen and kLive
  // arms legitimately disagree on.
  stream.mix(static_cast<std::uint64_t>(result.outcomes));
  stream.mix(static_cast<std::uint64_t>(result.service.submitted));
  stream.mix(static_cast<std::uint64_t>(result.service.shed));
  stream.mix(static_cast<std::uint64_t>(result.service.queued));
  stream.mix(static_cast<std::uint64_t>(result.fleet.routed));
  stream.mix(static_cast<std::uint64_t>(result.fleet.failovers));
  stream.mix(static_cast<std::uint64_t>(result.fleet.hedges_redirected));
  stream.mix(static_cast<std::uint64_t>(result.fleet.no_healthy_shard));
  stream.mix(static_cast<std::uint64_t>(result.fleet.evicted));
  stream.mix(static_cast<std::uint64_t>(result.fleet.kills));
  stream.mix(static_cast<std::uint64_t>(result.fleet.hangs));
  stream.mix(static_cast<std::uint64_t>(result.fleet.restarts));
  stream.mix(static_cast<std::uint64_t>(result.fleet.quarantines));
  stream.mix(static_cast<std::uint64_t>(result.fleet.heartbeat_timeouts));
  stream.mix(static_cast<std::uint64_t>(result.fleet.burn_quarantines));
  stream.mix(static_cast<std::uint64_t>(result.fleet.degrades));
  stream.mix(static_cast<std::uint64_t>(result.fleet.readmissions));
  stream.mix(static_cast<std::uint64_t>(result.fleet.windows_granted));
  stream.mix(static_cast<std::uint64_t>(result.fleet.window_waits));
  for (const int epoch : result.final_epochs) {
    stream.mix(static_cast<std::uint64_t>(epoch));
  }
  result.digest = stream.digest();
  result.vend_latency = stream.vend_latency();
  return result;
}

bool write_fleet_json(const std::string& path,
                      const FleetLoadgenConfig& config,
                      const FleetLoadgenResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const serve::ServiceStats& s = result.service;
  const FleetStats& f = result.fleet;
  const support::QuantileSummary& lat = result.vend_latency;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"fleet\",\n");
  std::fprintf(out, "  \"mesh\": \"%s\",\n", config.fleet.mesh.c_str());
  std::fprintf(
      out,
      "  \"shards\": %d,\n  \"clients\": %lld,\n  \"ticks\": %lld,\n"
      "  \"seed\": %llu,\n  \"recovery_mode\": \"%s\",\n"
      "  \"initial_node_faults\": %lld,\n  \"storm_node_kills\": %lld,\n"
      "  \"storm_link_kills\": %lld,\n  \"shard_kills\": %lld,\n"
      "  \"shard_hangs\": %lld,\n  \"reconfigure_ticks\": %lld,\n"
      "  \"heartbeat_timeout\": %lld,\n  \"quarantine_cooloff\": %lld,\n"
      "  \"recovering_ticks\": %lld,\n",
      config.fleet.shards, static_cast<long long>(config.clients),
      static_cast<long long>(config.ticks),
      static_cast<unsigned long long>(config.seed),
      config.fleet.recovery == RecoveryMode::kReopen ? "reopen" : "live",
      static_cast<long long>(config.fleet.initial_node_faults),
      static_cast<long long>(config.storm_node_kills),
      static_cast<long long>(config.storm_link_kills),
      static_cast<long long>(config.shard_kills),
      static_cast<long long>(config.shard_hangs),
      static_cast<long long>(config.fleet.reconfigure_ticks),
      static_cast<long long>(config.fleet.heartbeat_timeout),
      static_cast<long long>(config.fleet.quarantine_cooloff),
      static_cast<long long>(config.fleet.recovering_ticks));
  std::fprintf(
      out,
      "  \"outcomes\": %lld,\n  \"served_fresh\": %lld,\n"
      "  \"served_stale\": %lld,\n  \"served_fallback\": %lld,\n"
      "  \"gave_up_overloaded\": %lld,\n  \"gave_up_rejected\": %lld,\n"
      "  \"unroutable\": %lld,\n  \"deadline_exceeded\": %lld,\n"
      "  \"errors\": %lld,\n",
      static_cast<long long>(result.outcomes),
      static_cast<long long>(result.served_fresh),
      static_cast<long long>(result.served_stale),
      static_cast<long long>(result.served_fallback),
      static_cast<long long>(result.gave_up_overloaded),
      static_cast<long long>(result.gave_up_rejected),
      static_cast<long long>(result.unroutable),
      static_cast<long long>(result.deadline_exceeded),
      static_cast<long long>(result.errors));
  std::fprintf(
      out,
      "  \"submitted\": %lld,\n  \"accepted\": %lld,\n  \"queued\": %lld,\n"
      "  \"shed\": %lld,\n  \"publishes\": %lld,\n",
      static_cast<long long>(s.submitted),
      static_cast<long long>(s.fresh + s.stale + s.fallback),
      static_cast<long long>(s.queued), static_cast<long long>(s.shed),
      static_cast<long long>(s.publishes));
  std::fprintf(
      out,
      "  \"fleet_routed\": %lld,\n  \"failovers\": %lld,\n"
      "  \"hedges_redirected\": %lld,\n  \"no_healthy_shard\": %lld,\n"
      "  \"evicted\": %lld,\n  \"kills\": %lld,\n  \"hangs\": %lld,\n"
      "  \"restarts\": %lld,\n  \"reopens\": %lld,\n"
      "  \"quarantines\": %lld,\n  \"heartbeat_timeouts\": %lld,\n"
      "  \"burn_quarantines\": %lld,\n  \"degrades\": %lld,\n"
      "  \"readmissions\": %lld,\n  \"windows_granted\": %lld,\n"
      "  \"window_waits\": %lld,\n",
      static_cast<long long>(f.routed), static_cast<long long>(f.failovers),
      static_cast<long long>(f.hedges_redirected),
      static_cast<long long>(f.no_healthy_shard),
      static_cast<long long>(f.evicted), static_cast<long long>(f.kills),
      static_cast<long long>(f.hangs), static_cast<long long>(f.restarts),
      static_cast<long long>(f.reopens),
      static_cast<long long>(f.quarantines),
      static_cast<long long>(f.heartbeat_timeouts),
      static_cast<long long>(f.burn_quarantines),
      static_cast<long long>(f.degrades),
      static_cast<long long>(f.readmissions),
      static_cast<long long>(f.windows_granted),
      static_cast<long long>(f.window_waits));
  std::fprintf(
      out,
      "  \"failed_requests\": %lld,\n  \"final_queue_depth\": %lld,\n"
      "  \"storm_events\": %lld,\n  \"chaos_events\": %lld,\n"
      "  \"cooldown_used\": %lld,\n",
      static_cast<long long>(result.failed_requests),
      static_cast<long long>(result.final_queue_depth),
      static_cast<long long>(result.storm_events),
      static_cast<long long>(result.chaos_events),
      static_cast<long long>(result.cooldown_used));
  std::fprintf(out, "  \"final_epochs\": [");
  for (std::size_t i = 0; i < result.final_epochs.size(); ++i) {
    std::fprintf(out, "%s%d", i == 0 ? "" : ", ", result.final_epochs[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"digest\": \"0x%016llx\",\n",
               static_cast<unsigned long long>(result.digest));
  std::fprintf(
      out,
      "  \"vend_latency\": {\"count\": %lld, \"mean_us\": %.3f, "
      "\"min_us\": %.3f, \"max_us\": %.3f, \"p50_us\": %.3f, "
      "\"p95_us\": %.3f, \"p99_us\": %.3f},\n",
      static_cast<long long>(lat.count), lat.mean * 1e6, lat.min * 1e6,
      lat.max * 1e6, lat.p50 * 1e6, lat.p95 * 1e6, lat.p99 * 1e6);
  std::fprintf(out, "  \"slo\": %s,\n",
               obs::SloTracker::global().render_json("  ").c_str());
  std::fprintf(out, "%s", support::machine_info_json().c_str());
  std::fprintf(out,
               "  \"gates\": [\n"
               "    {\"metric\": \"failed_requests\", \"equals\": 0},\n"
               "    {\"metric\": \"final_queue_depth\", \"equals\": 0},\n"
               "    {\"metric\": \"slo.fleet_availability.burn\", "
               "\"max\": 1.0}\n"
               "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  return true;
}

}  // namespace lamb::fleet
