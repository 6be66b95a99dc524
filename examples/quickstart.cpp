// Quickstart: the complete lamb workflow in ~60 lines.
//
//   1. Build a mesh and a fault set.
//   2. Run Lamb1 to pick the sacrificial lamb nodes.
//   3. Verify the guarantee: every survivor 2-reaches every survivor.
//   4. Build an actual 2-round route between two survivors and print it.
//
// Build:   cmake -B build -G Ninja && cmake --build build
// Run:     ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "io/cli_args.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  // A 16x16 mesh with 8 random node faults (~3%).
  const MeshShape shape = MeshShape::cube(2, 16);
  Rng rng(2002);
  const FaultSet faults = FaultSet::random_nodes(shape, 8, rng);
  std::printf("mesh %s, %lld faults at:", shape.to_string().c_str(),
              (long long)faults.f());
  for (NodeId id : faults.node_faults()) {
    const Point p = shape.point(id);
    std::printf(" (%d,%d)", p[0], p[1]);
  }
  std::printf("\n");

  // Find lambs for 2 rounds of XY routing (the default).
  const LambResult result = lamb1(shape, faults, {});
  std::printf("lambs (%lld):", (long long)result.size());
  for (NodeId id : result.lambs) {
    const Point p = shape.point(id);
    std::printf(" (%d,%d)", p[0], p[1]);
  }
  std::printf("\nSES partition: %lld sets, DES partition: %lld sets\n",
              (long long)result.stats.p, (long long)result.stats.q);

  // Double-check the lamb guarantee by brute force.
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  std::printf("lamb set valid: %s\n",
              is_lamb_set(shape, faults, orders, result.lambs) ? "yes" : "NO");

  // Route between two survivors: round 1 on virtual channel 0, round 2 on
  // virtual channel 1.
  wormhole::RouteCache routes(shape, faults, orders);
  auto is_survivor = [&](NodeId id) {
    return faults.node_good(id) &&
           !std::binary_search(result.lambs.begin(), result.lambs.end(), id);
  };
  NodeId src = 0, dst = shape.size() - 1;
  while (!is_survivor(src)) ++src;    // first survivor
  while (!is_survivor(dst)) --dst;    // last survivor

  if (const auto route = routes.build(src, dst, rng)) {
    const Point a = shape.point(src), b = shape.point(dst);
    std::printf("route (%d,%d) -> (%d,%d): %lld hops, %d turns, VCs:", a[0],
                a[1], b[0], b[1], (long long)route->length(), route->turns());
    int last_vc = -1;
    for (const wormhole::Hop& hop : route->hops) {
      if (hop.vc != last_vc) {
        std::printf(" [round %d]", hop.vc + 1);
        last_vc = hop.vc;
      }
      std::printf(" %c%c", "+-"[hop.dir == Dir::Neg], "XY"[hop.dim]);
    }
    std::printf("\n");
  }
  return 0;
}
