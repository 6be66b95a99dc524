// Ablation: intermediate-node selection policy. The paper leaves the
// choice of the k-1 intermediates open ("this choice can affect message
// congestion ... one heuristic is to choose routes of shortest length,
// breaking ties randomly"). This bench compares random tie-breaking with
// the load-aware refinement (ties go to the least-used intermediate) on
// the wormhole simulator, under uniform and hot-spot traffic.
#include <algorithm>
#include <cstdio>

#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

namespace {

struct Outcome {
  double avg_latency;
  double p99_latency;
  double max_link_load;
  bool ok;
};

Outcome run(const MeshShape& shape, const FaultSet& faults,
            const std::vector<NodeId>& lambs, wormhole::Pattern pattern,
            bool load_aware, std::uint64_t seed) {
  Rng rng(seed);
  // Survivor endpoints, as in generate_traffic, but routed through the
  // cache so the load-aware policy can see accumulated usage.
  std::vector<NodeId> survivors;
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (faults.node_good(id) &&
        !std::binary_search(lambs.begin(), lambs.end(), id)) {
      survivors.push_back(id);
    }
  }
  wormhole::RouteCache cache(shape, faults, ascending_rounds(shape.dim(), 2));
  wormhole::NodeLoad load(shape);
  const NodeId hotspot = survivors[survivors.size() / 2];

  wormhole::SimConfig sim_config;
  sim_config.telemetry = obs::default_telemetry();
  wormhole::Network net(shape, faults, sim_config);
  const std::int64_t messages = scaled_trials(400);
  std::int64_t id = 0;
  for (std::int64_t i = 0; i < messages; ++i) {
    const NodeId src = survivors[rng.below(survivors.size())];
    NodeId dst = pattern == wormhole::Pattern::kHotSpot
                     ? hotspot
                     : survivors[rng.below(survivors.size())];
    if (dst == src) continue;
    auto route = cache.build(src, dst, rng, load_aware ? &load : nullptr);
    if (!route) continue;
    wormhole::Message msg;
    msg.id = id++;
    msg.route = std::move(*route);
    msg.length_flits = 8;
    msg.inject_cycle = i;
    net.submit(std::move(msg));
  }
  // Ship the per-node route-construction load with the telemetry dump so
  // the load-aware/random difference is plottable per node.
  if (auto* telemetry = net.telemetry()) telemetry->set_route_load(load.counts);
  const auto result = net.run();
  return Outcome{result.latency.mean(), result.latency_samples.quantile(0.99),
                 result.link_load.max(),
                 result.all_delivered() && !result.deadlocked};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kTelemetryFlag};
  io::parse_cli(argc, argv, {.flags = kFlags});
  expt::print_banner(
      "Ablation 13 (Section 2.1, intermediate choice)",
      "random vs load-aware tie-breaking among shortest intermediates",
      "M_3(8), 2% faults, 8-flit messages, 2 VCs");

  const MeshShape shape = MeshShape::cube(3, 8);
  Rng rng(default_seed());
  const FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
  const LambResult lambs = lamb1(shape, faults, {});

  expt::TableWriter table({"pattern", "policy", "avg_lat", "p99_lat",
                           "max_link", "delivered"},
                          12);
  table.print_header();
  for (const auto& [pattern, name] :
       {std::pair{wormhole::Pattern::kUniform, "uniform"},
        std::pair{wormhole::Pattern::kHotSpot, "hotspot"}}) {
    for (const bool aware : {false, true}) {
      const Outcome o =
          run(shape, faults, lambs.lambs, pattern, aware, default_seed() + 9);
      table.print_row({name, aware ? "load-aware" : "random",
                       expt::TableWriter::num(o.avg_latency, 1),
                       expt::TableWriter::num(o.p99_latency, 0),
                       expt::TableWriter::num(o.max_link_load, 0),
                       o.ok ? "all" : "NO"});
    }
  }
  std::printf(
      "\nBoth policies use only minimum-length routes (the paper's\n"
      "heuristic). Under uniform traffic the load-aware tie-break flattens\n"
      "the busiest link and trims tail latency slightly. Under a hot spot\n"
      "it BACKFIRES: build-time usage counters are a poor proxy for\n"
      "time-varying contention at a shared destination, and the\n"
      "deterministic tie-break removes the route diversity that random\n"
      "selection provides. This supports the paper's choice of the simple\n"
      "randomized heuristic as the default.\n");
  return 0;
}
