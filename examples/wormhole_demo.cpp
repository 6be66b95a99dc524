// Wormhole routing demo: runs survivor traffic through the flit-level
// simulator on a faulty 8x8x8 mesh, with 2 rounds of XYZ routing on 2
// virtual channels (the paper's Blue Gene configuration), and prints a
// latency/turn report plus a visual slice of the mesh showing faults (#),
// lambs (L), and survivors (.).
#include <algorithm>
#include <cstdio>

#include "core/lamb.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kTelemetryFlag};
  io::parse_cli(argc, argv, {.flags = kFlags});
  const MeshShape shape = MeshShape::cube(3, 8);
  Rng rng(77);
  const FaultSet faults = FaultSet::random_nodes(shape, 20, rng);  // ~4%
  const LambResult lambs = lamb1(shape, faults, {});
  std::printf("mesh %s: %lld faults, %lld lambs\n",
              shape.to_string().c_str(), (long long)faults.f(),
              (long long)lambs.size());

  // Draw the z = 0 and z = 1 planes.
  for (Coord z = 0; z < 2; ++z) {
    std::printf("plane z=%d:\n", z);
    for (Coord y = 0; y < 8; ++y) {
      std::printf("  ");
      for (Coord x = 0; x < 8; ++x) {
        const NodeId id = shape.index(Point{x, y, z});
        char c = '.';
        if (faults.node_faulty(id)) {
          c = '#';
        } else if (std::binary_search(lambs.lambs.begin(), lambs.lambs.end(),
                                      id)) {
          c = 'L';
        }
        std::printf("%c ", c);
      }
      std::printf("\n");
    }
  }

  // Route through the memoized cache, as a running machine would: the
  // repeated endpoint floods under uniform traffic make its hit rate a
  // headline metric (`LAMBMESH_METRICS=stderr` prints it).
  wormhole::RouteCache router(shape, faults, ascending_rounds(3, 2));
  wormhole::NodeLoad load(shape);
  wormhole::TrafficConfig tc;
  tc.pattern = wormhole::Pattern::kUniform;
  tc.num_messages = 400;
  tc.message_flits = 8;
  tc.injection_gap = 1.0;
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, router, tc, rng, &load);
  std::printf("\ntraffic: %s (unroutable must be 0)\n",
              traffic.summary().c_str());

  wormhole::SimConfig config;
  config.vcs_per_link = 2;   // one per round: deadlock-free by design
  config.buffer_flits = 4;
  config.telemetry = obs::default_telemetry();
  wormhole::Network net(shape, faults, config);
  if (auto* telemetry = net.telemetry()) telemetry->set_route_load(load.counts);
  for (const auto& m : traffic.messages) net.submit(m);
  const auto result = net.run();

  std::printf("%s", result.summary().c_str());
  std::printf("hops     avg %.1f  max %.0f\n", result.hops.mean(),
              result.hops.max());
  std::printf("turns    avg %.1f  max %.0f (bound for 3D, 2 rounds: 5)\n",
              result.turns.mean(), result.turns.max());
  return 0;
}
