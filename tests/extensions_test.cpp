// Tests for the library extensions beyond the paper's core pipeline: the
// load-aware intermediate policy, simulator load/latency statistics, and
// wormhole routing on tori.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/lamb.hpp"
#include "generic/generic_solver.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

namespace lamb {
namespace {

TEST(LoadAwareRoutes, RoutesStayMinimalAndValid) {
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng frng(31);
  const FaultSet faults = FaultSet::random_nodes(shape, 8, frng);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  wormhole::RouteCache plain(shape, faults, ascending_rounds(2, 2));
  wormhole::NodeLoad load(shape);
  Rng rng(32);
  for (int t = 0; t < 120; ++t) {
    const NodeId a = (NodeId)rng.below((std::uint64_t)shape.size());
    const NodeId b = (NodeId)rng.below((std::uint64_t)shape.size());
    Rng r1(t), r2(t);
    const auto aware = cache.build(a, b, r1, &load);
    const auto random = plain.build(a, b, r2);
    ASSERT_EQ(aware.has_value(), random.has_value());
    if (aware) {
      // Load-aware selection must not lengthen routes.
      EXPECT_EQ(aware->length(), random->length());
      // Walk and verify fault avoidance.
      Point at = shape.point(a);
      for (const wormhole::Hop& hop : aware->hops) {
        Point next;
        ASSERT_TRUE(shape.neighbor(at, hop.dim, hop.dir, &next));
        EXPECT_FALSE(faults.node_faulty(next));
        at = next;
      }
      EXPECT_EQ(shape.index(at), b);
    }
  }
  // The counters must have accumulated charge.
  std::int64_t charged = 0;
  for (std::int32_t c : load.counts) charged += c;
  EXPECT_GT(charged, 0);
}

TEST(LoadAwareRoutes, SpreadsTiesAcrossIntermediates) {
  // Source row 0 to destination column 9 on a fault-free mesh: many
  // minimum-length intermediates exist; repeated load-aware builds must
  // not all pick the same one.
  const MeshShape shape = MeshShape::cube(2, 10);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  wormhole::NodeLoad load(shape);
  Rng rng(33);
  std::set<NodeId> intermediates;
  for (int t = 0; t < 12; ++t) {
    const auto route = cache.build(shape.index(Point{0, 0}),
                                   shape.index(Point{9, 9}), rng, &load);
    ASSERT_TRUE(route.has_value());
    ASSERT_EQ(route->intermediates.size(), 1u);
    intermediates.insert(route->intermediates[0]);
  }
  EXPECT_GT(intermediates.size(), 3u);
}

TEST(SimulatorStats, LatencySamplesAndLinkLoadPopulated) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(34);
  wormhole::TrafficConfig tc;
  tc.num_messages = 60;
  const auto traffic =
      wormhole::generate_traffic(shape, faults, {}, routes, tc, rng);
  wormhole::Network net(shape, faults, wormhole::SimConfig{});
  for (const auto& m : traffic.messages) net.submit(m);
  const auto result = net.run();
  ASSERT_TRUE(result.all_delivered());
  EXPECT_EQ(result.latency_samples.count(), result.delivered);
  EXPECT_EQ(result.latency_samples.max(), result.latency.max());
  EXPECT_NEAR(result.latency_samples.mean(), result.latency.mean(), 1e-9);
  EXPECT_LE(result.latency_samples.quantile(0.5),
            result.latency_samples.quantile(0.99));
  EXPECT_GT(result.link_load.count(), 0);
  EXPECT_GE(result.link_load.max(), result.link_load.mean());
}

TEST(TorusWormhole, TrafficDrainsAcrossWrapLinks) {
  const MeshShape torus = MeshShape::torus({8, 8});
  Rng frng(35);
  const FaultSet faults = FaultSet::random_nodes(torus, 5, frng);
  const GenericLambResult lambs =
      generic_lamb(torus, faults, ascending_rounds(2, 2));
  wormhole::RouteCache routes(torus, faults, ascending_rounds(2, 2));
  Rng rng(36);
  wormhole::TrafficConfig tc;
  tc.num_messages = 100;
  tc.message_flits = 6;
  const auto traffic =
      wormhole::generate_traffic(torus, faults, lambs.lambs, routes, tc, rng);
  EXPECT_EQ(traffic.unroutable, 0);
  wormhole::Network net(torus, faults, wormhole::SimConfig{});
  for (const auto& m : traffic.messages) net.submit(m);
  const auto result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_FALSE(result.deadlocked);
  // Wrap routes are shorter than any mesh path for far-apart pairs.
  EXPECT_LE(result.hops.max(), 8.0);  // torus diameter of T2(8) is 8
}

TEST(TorusWormhole, WrapRouteIsShorterThanMeshRoute) {
  const MeshShape torus = MeshShape::torus({8, 8});
  const FaultSet faults(torus);
  wormhole::RouteCache routes(torus, faults, ascending_rounds(2, 2));
  Rng rng(37);
  const auto route = routes.build(torus.index(Point{0, 0}),
                                   torus.index(Point{7, 7}), rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 2);  // one wrap hop per dimension
}

}  // namespace
}  // namespace lamb
