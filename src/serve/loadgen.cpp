#include "serve/loadgen.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "obs/obs.hpp"
#include "support/machine_info.hpp"
#include "wormhole/fault_schedule.hpp"

namespace lamb::serve {

void OutcomeStream::add(const Client::Outcome& outcome) {
  ++counts_.outcomes;
  switch (outcome.status) {
    case ServeStatus::kFresh: ++counts_.served_fresh; break;
    case ServeStatus::kStale: ++counts_.served_stale; break;
    case ServeStatus::kFallback: ++counts_.served_fallback; break;
    case ServeStatus::kOverloaded: ++counts_.gave_up_overloaded; break;
    case ServeStatus::kRejected: ++counts_.gave_up_rejected; break;
    case ServeStatus::kUnroutable: ++counts_.unroutable; break;
    case ServeStatus::kDeadline: ++counts_.deadline_exceeded; break;
    case ServeStatus::kError: ++counts_.errors; break;
  }
  mix(outcome.client);
  mix(static_cast<std::uint64_t>(outcome.seq));
  mix(static_cast<std::uint64_t>(outcome.status));
  mix(static_cast<std::uint64_t>(outcome.attempts));
  mix(static_cast<std::uint64_t>(outcome.epoch));
  mix(static_cast<std::uint64_t>(outcome.route_length));
  mix(static_cast<std::uint64_t>(outcome.latency_ticks));
  if (served(outcome.status)) latencies_.push_back(outcome.vend_seconds);
}

void OutcomeStream::mix(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (x >> (8 * i)) & 0xff;
    digest_ *= 1099511628211ULL;
  }
}

support::QuantileSummary OutcomeStream::vend_latency() {
  return support::summarize(&latencies_);
}

LoadgenResult run_loadgen(const LoadgenConfig& config) {
  const MeshShape shape = io::parse_geometry(config.mesh);
  Rng rng(config.seed);
  manager::MachineManager manager(shape);
  if (config.initial_node_faults > 0) {
    const FaultSet initial =
        FaultSet::random_nodes(shape, config.initial_node_faults, rng);
    for (const NodeId id : initial.node_faults()) {
      manager.report_node_fault(id);
    }
  }
  manager.reconfigure();
  RouteService service(manager, config.service, /*now=*/0);

  const std::int64_t horizon = std::max<std::int64_t>(config.ticks, 1);
  const wormhole::FaultSchedule storm = wormhole::FaultSchedule::random_storm(
      shape, manager.faults(), config.storm_node_kills,
      config.storm_link_kills, horizon, rng);
  std::unordered_map<std::int64_t, std::vector<wormhole::FaultEvent>> events;
  for (const wormhole::FaultEvent& ev : storm.events) {
    events[ev.cycle].push_back(ev);
  }

  std::vector<Client> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (std::int64_t i = 0; i < config.clients; ++i) {
    clients.emplace_back(static_cast<std::uint64_t>(i + 1),
                         rng.child_seed(static_cast<std::uint64_t>(i)),
                         config.client, &service);
  }

  LoadgenResult result;
  result.storm_events = static_cast<std::int64_t>(storm.events.size());
  OutcomeStream stream;
  std::vector<Client::Outcome> outcomes;
  std::int64_t publish_due = -1;
  bool draining = false;
  std::int64_t t = 0;
  while (true) {
    if (t >= horizon && !draining) {
      draining = true;
      for (Client& client : clients) client.set_draining(true);
    }
    if (draining) {
      bool settled = publish_due < 0 && service.queue_depth() == 0;
      if (settled) {
        for (const Client& client : clients) {
          if (!client.settled()) {
            settled = false;
            break;
          }
        }
      }
      if (settled || t >= horizon + config.max_cooldown) break;
    }

    // Storm strikes the manager; the serving window opens at once, the
    // new epoch publishes when the (simulated) solver is done.
    const auto due = events.find(t);
    if (due != events.end()) {
      for (const wormhole::FaultEvent& ev : due->second) {
        if (ev.kind == wormhole::FaultEvent::Kind::kNode) {
          manager.report_node_fault(ev.node);
        } else {
          manager.report_link_fault(shape.point(ev.node), ev.dim, ev.dir);
        }
      }
      service.begin_reconfigure(t);
      if (publish_due < 0) publish_due = t + config.reconfigure_ticks;
    }
    if (publish_due >= 0 && t >= publish_due) {
      manager.reconfigure();
      ++result.reconfigures;
      service.publish(t);
      publish_due = -1;
    }

    outcomes.clear();
    for (const RouteService::Drained& drained : service.advance(t)) {
      clients[static_cast<std::size_t>(drained.request.client_id - 1)]
          .on_response(drained.request, drained.response, t, &outcomes);
    }
    for (Client& client : clients) client.step(t, &outcomes);

    for (const Client::Outcome& outcome : outcomes) stream.add(outcome);
    ++t;
  }

  static_cast<OutcomeCounts&>(result) = stream.counts();
  result.cooldown_used = std::max<std::int64_t>(0, t - horizon);
  result.service = service.stats();
  result.final_queue_depth = service.queue_depth();
  result.failed_requests = result.service.errors;
  result.final_epoch = manager.epoch();
  result.survivors =
      static_cast<std::int64_t>(service.table()->survivors().size());
  // Fold the totals in too, so a dropped-versus-shed misclassification
  // cannot cancel out across the stream.
  stream.mix(static_cast<std::uint64_t>(result.outcomes));
  stream.mix(static_cast<std::uint64_t>(result.service.submitted));
  stream.mix(static_cast<std::uint64_t>(result.service.shed));
  stream.mix(static_cast<std::uint64_t>(result.service.queued));
  stream.mix(static_cast<std::uint64_t>(result.final_epoch));
  result.digest = stream.digest();
  result.vend_latency = stream.vend_latency();
  return result;
}

bool write_serve_json(const std::string& path, const LoadgenConfig& config,
                      const LoadgenResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const ServiceStats& s = result.service;
  const support::QuantileSummary& lat = result.vend_latency;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve\",\n");
  std::fprintf(out, "  \"mesh\": \"%s\",\n", config.mesh.c_str());
  std::fprintf(
      out,
      "  \"clients\": %lld,\n  \"ticks\": %lld,\n  \"seed\": %llu,\n"
      "  \"initial_node_faults\": %lld,\n  \"storm_node_kills\": %lld,\n"
      "  \"storm_link_kills\": %lld,\n  \"reconfigure_ticks\": %lld,\n"
      "  \"staleness_cap\": %lld,\n  \"shards\": %d,\n"
      "  \"refill_per_tick\": %g,\n  \"bucket_capacity\": %g,\n"
      "  \"queue_depth_per_shard\": %lld,\n",
      static_cast<long long>(config.clients),
      static_cast<long long>(config.ticks),
      static_cast<unsigned long long>(config.seed),
      static_cast<long long>(config.initial_node_faults),
      static_cast<long long>(config.storm_node_kills),
      static_cast<long long>(config.storm_link_kills),
      static_cast<long long>(config.reconfigure_ticks),
      static_cast<long long>(config.service.staleness_cap),
      config.service.admission.shards,
      config.service.admission.refill_per_tick,
      config.service.admission.bucket_capacity,
      static_cast<long long>(config.service.admission.max_queue_depth));
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
      "  \"shed\": %lld,\n  \"stale\": %lld,\n  \"fallback\": %lld,\n"
      "  \"rejected\": %lld,\n",
      static_cast<long long>(s.submitted),
      static_cast<long long>(s.fresh + s.stale + s.fallback),
      static_cast<long long>(s.queued), static_cast<long long>(s.shed),
      static_cast<long long>(s.stale), static_cast<long long>(s.fallback),
      static_cast<long long>(s.rejected));
  std::fprintf(
      out,
      "  \"failed_requests\": %lld,\n  \"final_queue_depth\": %lld,\n"
      "  \"max_queue_depth_observed\": %lld,\n  \"queue_bound\": %lld,\n"
      "  \"floods_retained\": %lld,\n  \"floods_dropped\": %lld,\n"
      "  \"storm_events\": %lld,\n  \"reconfigures\": %lld,\n"
      "  \"cooldown_used\": %lld,\n  \"final_epoch\": %d,\n"
      "  \"survivors\": %lld,\n",
      static_cast<long long>(result.failed_requests),
      static_cast<long long>(result.final_queue_depth),
      static_cast<long long>(s.max_queue_depth),
      static_cast<long long>(config.service.admission.shards *
                             config.service.admission.max_queue_depth),
      static_cast<long long>(s.floods_retained),
      static_cast<long long>(s.floods_dropped),
      static_cast<long long>(result.storm_events),
      static_cast<long long>(result.reconfigures),
      static_cast<long long>(result.cooldown_used), result.final_epoch,
      static_cast<long long>(result.survivors));
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
  // machine_info_json() is a complete `"schema_version"/"machine"` key
  // fragment, inserted verbatim like the other BENCH writers do.
  std::fprintf(out, "%s", support::machine_info_json().c_str());
  std::fprintf(out,
               "  \"gates\": [\n"
               "    {\"metric\": \"failed_requests\", \"equals\": 0},\n"
               "    {\"metric\": \"final_queue_depth\", \"equals\": 0},\n"
               "    {\"metric\": \"slo.route_vend_latency.burn\", "
               "\"max\": 1.0}\n"
               "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  return true;
}

}  // namespace lamb::serve
