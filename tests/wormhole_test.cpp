// Tests for the wormhole substrate: route construction (fault avoidance,
// per-round virtual channels, turn bounds, shortest-intermediate choice),
// flit-level timing (pipelined latency), virtual-channel semantics
// (deadlock with fewer VCs than rounds, guaranteed progress with one VC
// per round), and traffic generation invariants.
#include <gtest/gtest.h>

#include <memory>

#include "core/lamb.hpp"
#include "reach/flood_oracle.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

namespace lamb {
namespace {

using wormhole::Hop;
using wormhole::Message;
using wormhole::Network;
using wormhole::Pattern;
using wormhole::Route;
using wormhole::RouteCache;
using wormhole::SimConfig;
using wormhole::SimResult;
using wormhole::TrafficConfig;

// Walks a route hop by hop and returns the visited node ids.
std::vector<NodeId> walk(const MeshShape& shape, const Route& route) {
  std::vector<NodeId> nodes{route.src};
  Point at = shape.point(route.src);
  for (const Hop& hop : route.hops) {
    Point next;
    EXPECT_TRUE(shape.neighbor(at, hop.dim, hop.dir, &next));
    at = next;
    nodes.push_back(shape.index(at));
  }
  return nodes;
}

TEST(RoutePicker, FaultFreeMeshBuildsMinimalRoute) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(1);
  const auto route =
      routes.build(shape.index(Point{0, 0}), shape.index(Point{5, 3}), rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 8);  // L1 distance: no detour needed
  EXPECT_EQ(walk(shape, *route).back(), shape.index(Point{5, 3}));
  EXPECT_LE(route->turns(), 3);  // k(d-1) + (k-1) = 3 for 2D, 2 rounds
}

TEST(RoutePicker, RouteAvoidsFaultsAndUsesRoundVcs) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  for (Coord y = 0; y < 7; ++y) faults.add_node(Point{4, y});  // near-wall
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(2);
  const auto route =
      routes.build(shape.index(Point{0, 0}), shape.index(Point{7, 0}), rng);
  ASSERT_TRUE(route.has_value());
  for (NodeId id : walk(shape, *route)) {
    EXPECT_FALSE(faults.node_faulty(id));
  }
  // VCs must be the round index and non-decreasing along the route.
  int prev_vc = 0;
  for (const Hop& hop : route->hops) {
    EXPECT_GE(hop.vc, prev_vc);
    EXPECT_LT(hop.vc, 2);
    prev_vc = hop.vc;
  }
}

TEST(RoutePicker, UnreachablePairReturnsNullopt) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  for (Coord y = 0; y < 8; ++y) faults.add_node(Point{4, y});  // full wall
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(3);
  EXPECT_FALSE(
      routes.build(shape.index(Point{0, 0}), shape.index(Point{7, 0}), rng)
          .has_value());
}

TEST(RoutePicker, PicksShortestIntermediate) {
  // With no faults the best intermediate is on a minimal path, so total
  // length equals the L1 distance for many random pairs.
  const MeshShape shape = MeshShape::cube(3, 6);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(3, 2));
  Rng rng(4);
  for (int t = 0; t < 30; ++t) {
    const NodeId a = static_cast<NodeId>(rng.below(
        static_cast<std::uint64_t>(shape.size())));
    const NodeId b = static_cast<NodeId>(rng.below(
        static_cast<std::uint64_t>(shape.size())));
    const auto route = routes.build(a, b, rng);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->length(),
              shape.l1_distance(shape.point(a), shape.point(b)));
  }
}

TEST(RoutePicker, ThreeRoundRoutesWork) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng frng(7);
  const FaultSet faults = FaultSet::random_nodes(shape, 6, frng);
  RouteCache routes(shape, faults, ascending_rounds(2, 3));
  const FloodOracle flood(shape, faults);
  Rng rng(8);
  int built = 0;
  for (int t = 0; t < 20; ++t) {
    const NodeId a = static_cast<NodeId>(rng.below(
        static_cast<std::uint64_t>(shape.size())));
    const NodeId b = static_cast<NodeId>(rng.below(
        static_cast<std::uint64_t>(shape.size())));
    if (faults.node_faulty(a) || faults.node_faulty(b)) continue;
    const bool reachable =
        flood.reach_from(shape.point(a), ascending_rounds(2, 3)).test(b);
    const auto route = routes.build(a, b, rng);
    EXPECT_EQ(route.has_value(), reachable);
    if (route) {
      ++built;
      for (NodeId id : walk(shape, *route)) {
        EXPECT_FALSE(faults.node_faulty(id));
      }
      EXPECT_LE(route->turns(), 3 * 1 + 2);  // k(d-1) + (k-1)
    }
  }
  EXPECT_GT(built, 0);
}

// --- Flit-level network ----------------------------------------------------

Message make_message(const MeshShape& shape [[maybe_unused]], RouteCache& routes,
                     NodeId src, NodeId dst, int flits, std::int64_t when,
                     Rng& rng, std::int64_t id = 0) {
  auto route = routes.build(src, dst, rng);
  EXPECT_TRUE(route.has_value());
  Message msg;
  msg.id = id;
  msg.route = *route;
  msg.length_flits = flits;
  msg.inject_cycle = when;
  return msg;
}

TEST(Network, SingleMessagePipelinedLatency) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(10);
  Network net(shape, faults, SimConfig{});
  // (0,0) -> (5,0): 5 hops, 4 flits: tail ejects at cycle hops + flits - 1.
  net.submit(make_message(shape, routes, shape.index(Point{0, 0}),
                          shape.index(Point{5, 0}), 4, 0, rng));
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.latency.max(), 5 + 4 - 1);
  EXPECT_EQ(result.hops.mean(), 5.0);
}

TEST(Network, ZeroHopMessageDeliversImmediately) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = msg.route.dst = shape.index(Point{1, 1});
  msg.length_flits = 3;
  msg.inject_cycle = 5;
  net.submit(msg);
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_EQ(result.latency.max(), 0.0);
}

TEST(Network, TwoMessagesShareALinkFairly) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(11);
  Network net(shape, faults, SimConfig{});
  // Same source row, same path prefix; they must serialize on the links
  // but both arrive.
  net.submit(make_message(shape, routes, shape.index(Point{0, 0}),
                          shape.index(Point{7, 0}), 6, 0, rng, 0));
  net.submit(make_message(shape, routes, shape.index(Point{0, 0}),
                          shape.index(Point{7, 0}), 6, 0, rng, 1));
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_FALSE(result.deadlocked);
  // Serialized injection: second message at least ~len cycles later.
  EXPECT_GE(result.latency.max(), 7 + 6 - 1 + 5);
}

TEST(Network, HeavyRandomTrafficDeliversWithTwoVcs) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng frng(12);
  const FaultSet faults = FaultSet::random_nodes(shape, 4, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(13);
  TrafficConfig tc;
  tc.num_messages = 150;
  tc.message_flits = 6;
  tc.injection_gap = 0.5;  // saturating
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
  EXPECT_EQ(traffic.unroutable, 0);
  Network net(shape, faults, SimConfig{});
  for (const Message& m : traffic.messages) net.submit(m);
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.flit_throughput, 0.0);
}

TEST(Network, DeadlocksWithOneVcOnCyclicTwoRoundTraffic) {
  // Four long messages chase each other around a ring of second-round
  // turns. With vcs_per_link = 1 both rounds share one channel, the
  // channel dependence graph is cyclic, and the watchdog must trip for
  // at least one arrangement; with 2 VCs the identical traffic drains.
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  Rng rng(14);

  auto ring_messages = [&](int) {
    // Hand-built 2-round routes around the square (1,1)-(4,1)-(4,4)-(1,4):
    // each message's round-1 leg is a full side and the round-2 leg turns
    // onto the next side, so each waits on the channel the next holds.
    std::vector<Message> msgs;
    auto leg = [&](Point from, Point mid, Point to, std::int64_t id) {
      Message m;
      m.id = id;
      m.route.src = shape.index(from);
      m.route.dst = shape.index(to);
      Point at = from;
      auto extend = [&](Point tgt, int round) {
        for (int dim = 0; dim < 2; ++dim) {
          while (at[dim] != tgt[dim]) {
            const Dir dir = tgt[dim] > at[dim] ? Dir::Pos : Dir::Neg;
            m.route.hops.push_back(Hop{dim, dir, round});
            at[dim] += static_cast<Coord>(dir_sign(dir));
          }
        }
      };
      extend(mid, 0);
      extend(to, 1);
      m.length_flits = 24;  // long enough to span the whole side
      m.inject_cycle = 0;
      return m;
    };
    msgs.push_back(leg(Point{1, 1}, Point{4, 1}, Point{4, 4}, 0));
    msgs.push_back(leg(Point{4, 1}, Point{4, 4}, Point{1, 4}, 1));
    msgs.push_back(leg(Point{4, 4}, Point{1, 4}, Point{1, 1}, 2));
    msgs.push_back(leg(Point{1, 4}, Point{1, 1}, Point{4, 1}, 3));
    return msgs;
  };

  SimConfig one_vc;
  one_vc.vcs_per_link = 1;
  one_vc.buffer_flits = 2;
  one_vc.deadlock_threshold = 200;
  Network starved(shape, faults, one_vc);
  for (const Message& m : ring_messages(0)) starved.submit(m);
  const SimResult starved_result = starved.run();
  EXPECT_TRUE(starved_result.deadlocked);
  EXPECT_FALSE(starved_result.all_delivered());

  SimConfig two_vc = one_vc;
  two_vc.vcs_per_link = 2;
  Network healthy(shape, faults, two_vc);
  for (const Message& m : ring_messages(0)) healthy.submit(m);
  const SimResult healthy_result = healthy.run();
  EXPECT_FALSE(healthy_result.deadlocked);
  EXPECT_TRUE(healthy_result.all_delivered());
  (void)rng;
}

TEST(Network, RejectsBadConfig) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  SimConfig config;
  config.vcs_per_link = 0;
  EXPECT_THROW(Network(shape, faults, config), std::invalid_argument);
}

// --- Traffic ----------------------------------------------------------------

TEST(Traffic, EndpointsAreSurvivorsOnly) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng frng(15);
  const FaultSet faults = FaultSet::random_nodes(shape, 6, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(16);
  for (Pattern pattern : {Pattern::kUniform, Pattern::kTranspose,
                          Pattern::kBitReversal, Pattern::kHotSpot}) {
    TrafficConfig tc;
    tc.pattern = pattern;
    tc.num_messages = 60;
    const auto traffic =
        generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
    EXPECT_EQ(traffic.unroutable, 0);
    for (const Message& m : traffic.messages) {
      for (NodeId endpoint : {m.route.src, m.route.dst}) {
        EXPECT_TRUE(faults.node_good(endpoint));
        EXPECT_FALSE(std::binary_search(lambs.lambs.begin(),
                                        lambs.lambs.end(), endpoint));
      }
      EXPECT_NE(m.route.src, m.route.dst);
    }
  }
}

TEST(Traffic, InjectionTimesRespectGap) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(17);
  TrafficConfig tc;
  tc.num_messages = 10;
  tc.injection_gap = 3.0;
  const auto traffic = generate_traffic(shape, faults, {}, routes, tc, rng);
  for (std::size_t i = 1; i < traffic.messages.size(); ++i) {
    EXPECT_GE(traffic.messages[i].inject_cycle,
              traffic.messages[i - 1].inject_cycle);
  }
  EXPECT_GE(traffic.messages.back().inject_cycle, 24);
}

TEST(Traffic, HotSpotHasSingleDestination) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(18);
  TrafficConfig tc;
  tc.pattern = Pattern::kHotSpot;
  tc.num_messages = 40;
  const auto traffic = generate_traffic(shape, faults, {}, routes, tc, rng);
  ASSERT_FALSE(traffic.messages.empty());
  const NodeId dst = traffic.messages.front().route.dst;
  for (const Message& m : traffic.messages) EXPECT_EQ(m.route.dst, dst);
}

}  // namespace
}  // namespace lamb
