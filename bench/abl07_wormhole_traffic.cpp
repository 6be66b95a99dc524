// Ablation: end-to-end wormhole performance of survivor traffic on a
// faulty mesh reconfigured with lambs — the Blue Gene scenario the paper
// is built for. Sweeps fault percentage and traffic pattern on an 8x8x8
// 3D mesh with 2 rounds of XYZ and 2 virtual channels, reporting
// delivery, latency, throughput, and turn statistics.
#include <cstdio>

#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kTelemetryFlag};
  io::parse_cli(argc, argv, {.flags = kFlags});
  expt::print_banner(
      "Ablation 7 (end-to-end)",
      "wormhole latency/throughput of survivor traffic under faults",
      "M_3(8), 2-round XYZ, 2 VCs, 4-flit buffers, 8-flit messages");

  const MeshShape shape = MeshShape::cube(3, 8);
  expt::TableWriter table({"fault%", "pattern", "lambs", "unroutable",
                           "delivered", "avg_lat", "p50_lat", "p95_lat",
                           "p99_lat", "thruput", "max_turns"},
                          11);
  table.print_header();
  for (double pct : {0.0, 1.0, 3.0, 6.0}) {
    Rng rng(default_seed() + (std::uint64_t)(pct * 10));
    const std::int64_t f = (std::int64_t)(shape.size() * pct / 100.0);
    const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
    const LambResult lambs = lamb1(shape, faults, {});
    wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));
    for (const auto& [pattern, name] :
         std::vector<std::pair<wormhole::Pattern, const char*>>{
             {wormhole::Pattern::kUniform, "uniform"},
             {wormhole::Pattern::kTranspose, "transpose"},
             {wormhole::Pattern::kHotSpot, "hotspot"}}) {
      wormhole::TrafficConfig tc;
      tc.pattern = pattern;
      tc.num_messages = scaled_trials(300);
      tc.message_flits = 8;
      tc.injection_gap = 1.0;
      const auto traffic =
          generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
      wormhole::SimConfig config;
      config.vcs_per_link = 2;
      config.buffer_flits = 4;
      config.telemetry = obs::default_telemetry();
      wormhole::Network net(shape, faults, config);
      for (const auto& m : traffic.messages) net.submit(m);
      const auto result = net.run();
      table.print_row(
          {expt::TableWriter::num(pct, 1), name,
           expt::TableWriter::integer(lambs.size()),
           expt::TableWriter::integer(traffic.unroutable),
           expt::TableWriter::integer(result.delivered),
           expt::TableWriter::num(result.latency.mean(), 1),
           expt::TableWriter::num(result.latency_samples.quantile(0.50), 0),
           expt::TableWriter::num(result.latency_samples.quantile(0.95), 0),
           expt::TableWriter::num(result.latency_samples.quantile(0.99), 0),
           expt::TableWriter::num(result.flit_throughput, 2),
           expt::TableWriter::integer((std::int64_t)result.turns.max())});
    }
  }
  std::printf(
      "\nWith a valid lamb set nothing is unroutable and nothing deadlocks;\n"
      "faults cost a mild latency increase (detours + fewer survivors) and\n"
      "turns stay within the k(d-1)+(k-1) = 5 bound for 3D / 2 rounds.\n");
  return 0;
}
