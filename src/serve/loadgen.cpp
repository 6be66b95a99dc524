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

void OutcomeStream::mix(std::uint64_t x) { digest_.mix(x); }

support::QuantileSummary OutcomeStream::vend_latency() {
  return support::summarize(&latencies_);
}

std::int64_t run_scenario(const ScenarioSteps& steps,
                          std::vector<Client>* clients,
                          OutcomeStream* stream) {
  std::vector<Client::Outcome> outcomes;
  bool draining = false;
  std::int64_t t = 0;
  while (true) {
    if (t >= steps.horizon && !draining) {
      draining = true;
      for (Client& client : *clients) client.set_draining(true);
    }
    if (draining) {
      const bool settled =
          steps.quiescent() &&
          std::all_of(clients->begin(), clients->end(),
                      [](const Client& client) { return client.settled(); });
      if (settled || t >= steps.horizon + steps.max_cooldown) break;
    }

    steps.strike(t);
    outcomes.clear();
    for (const RouteService::Drained& drained : steps.advance(t)) {
      (*clients)[static_cast<std::size_t>(drained.request.client_id - 1)]
          .on_response(drained.request, drained.response, t, &outcomes);
    }
    for (Client& client : *clients) client.step(t, &outcomes);

    for (const Client::Outcome& outcome : outcomes) stream->add(outcome);
    ++t;
  }
  return std::max<std::int64_t>(0, t - steps.horizon);
}

void finish_scenario(OutcomeStream* stream, const ServiceStats& service,
                     std::int64_t queue_depth,
                     const std::vector<std::int64_t>& totals,
                     ScenarioResult* result) {
  static_cast<OutcomeCounts&>(*result) = stream->counts();
  result->service = service;
  result->final_queue_depth = queue_depth;
  result->failed_requests = service.errors;
  stream->mix(static_cast<std::uint64_t>(result->outcomes));
  stream->mix(static_cast<std::uint64_t>(service.submitted));
  stream->mix(static_cast<std::uint64_t>(service.shed));
  stream->mix(static_cast<std::uint64_t>(service.queued));
  for (const std::int64_t total : totals) {
    stream->mix(static_cast<std::uint64_t>(total));
  }
  result->digest = stream->digest();
  result->vend_latency = stream->vend_latency();
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
  std::int64_t publish_due = -1;
  ScenarioSteps steps;
  steps.horizon = horizon;
  steps.max_cooldown = config.max_cooldown;
  // Storm strikes the manager; the serving window opens at once, the new
  // epoch publishes when the (simulated) solver is done.
  steps.strike = [&](std::int64_t t) {
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
  };
  steps.advance = [&](std::int64_t t) { return service.advance(t); };
  steps.quiescent = [&] {
    return publish_due < 0 && service.queue_depth() == 0;
  };
  OutcomeStream stream;
  result.cooldown_used = run_scenario(steps, &clients, &stream);

  result.final_epoch = manager.epoch();
  result.survivors =
      static_cast<std::int64_t>(service.table()->survivors().size());
  finish_scenario(&stream, service.stats(), service.queue_depth(),
                  {result.final_epoch}, &result);
  return result;
}

void json_fields(std::FILE* out, JsonFields fields) {
  for (const auto& [key, value] : fields) {
    std::fprintf(out, "  \"%s\": %lld,\n", key, static_cast<long long>(value));
  }
}

bool write_scenario_json(const std::string& path, const char* name,
                         const std::function<void(std::FILE*)>& fields,
                         const ScenarioResult& r, const char* burn_metric) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const ServiceStats& s = r.service;
  const support::QuantileSummary& lat = r.vend_latency;
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n", name);
  fields(out);
  json_fields(out, {{"outcomes", r.outcomes}, {"served_fresh", r.served_fresh},
                    {"served_stale", r.served_stale},
                    {"served_fallback", r.served_fallback},
                    {"gave_up_overloaded", r.gave_up_overloaded},
                    {"gave_up_rejected", r.gave_up_rejected},
                    {"unroutable", r.unroutable},
                    {"deadline_exceeded", r.deadline_exceeded},
                    {"errors", r.errors}, {"submitted", s.submitted},
                    {"accepted", s.fresh + s.stale + s.fallback},
                    {"queued", s.queued}, {"shed", s.shed},
                    {"failed_requests", r.failed_requests},
                    {"final_queue_depth", r.final_queue_depth},
                    {"storm_events", r.storm_events},
                    {"cooldown_used", r.cooldown_used}});
  std::fprintf(out, "  \"digest\": \"0x%016llx\",\n",
               static_cast<unsigned long long>(r.digest));
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
               "    {\"metric\": \"%s\", \"max\": 1.0}\n"
               "  ]\n}\n",
               burn_metric);
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

bool write_serve_json(const std::string& path, const LoadgenConfig& config,
                      const LoadgenResult& result) {
  const ServiceStats& s = result.service;
  const AdmissionOptions& a = config.service.admission;
  return write_scenario_json(
      path, "serve",
      [&](std::FILE* out) {
        std::fprintf(out, "  \"mesh\": \"%s\",\n  \"seed\": %llu,\n",
                     config.mesh.c_str(),
                     static_cast<unsigned long long>(config.seed));
        std::fprintf(out,
                     "  \"refill_per_tick\": %g,\n"
                     "  \"bucket_capacity\": %g,\n",
                     a.refill_per_tick, a.bucket_capacity);
        json_fields(
            out, {{"clients", config.clients}, {"ticks", config.ticks},
                  {"initial_node_faults", config.initial_node_faults},
                  {"storm_node_kills", config.storm_node_kills},
                  {"storm_link_kills", config.storm_link_kills},
                  {"reconfigure_ticks", config.reconfigure_ticks},
                  {"staleness_cap", config.service.staleness_cap},
                  {"shards", a.shards},
                  {"queue_depth_per_shard", a.max_queue_depth},
                  {"stale", s.stale}, {"fallback", s.fallback},
                  {"rejected", s.rejected},
                  {"max_queue_depth_observed", s.max_queue_depth},
                  {"queue_bound", a.shards * a.max_queue_depth},
                  {"floods_retained", s.floods_retained},
                  {"floods_dropped", s.floods_dropped},
                  {"reconfigures", result.reconfigures},
                  {"final_epoch", result.final_epoch},
                  {"survivors", result.survivors}});
      },
      result, "slo.route_vend_latency.burn");
}

}  // namespace lamb::serve
