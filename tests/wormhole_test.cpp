// Tests for the wormhole substrate: route construction (fault avoidance,
// per-round virtual channels, turn bounds, shortest-intermediate choice),
// flit-level timing (pipelined latency), virtual-channel semantics
// (deadlock with fewer VCs than rounds, guaranteed progress with one VC
// per round), and traffic generation invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/lamb.hpp"
#include "env_guard.hpp"
#include "reach/flood_oracle.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

namespace lamb {
namespace {

using wormhole::DeliveryOutcome;
using wormhole::Engine;
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
  // 64 directed links x 2^26 VCs: more (link, vc) slots than the 32-bit
  // hop records index.
  config.vcs_per_link = 1 << 26;
  EXPECT_THROW(Network(shape, faults, config), std::invalid_argument);
}

TEST(Network, SubmitRejectsZeroLengthMessages) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = shape.index(Point{0, 0});
  msg.route.dst = shape.index(Point{1, 0});
  msg.route.hops = {Hop{0, Dir::Pos, 0}};
  msg.length_flits = 0;
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
}

TEST(Network, SubmitRejectsEndpointsOutsideTheMesh) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = 100;
  msg.route.dst = 100;
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
  msg.route.src = -1;
  msg.route.dst = 0;
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
  msg.route.src = 0;
  msg.route.dst = shape.size();
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
}

TEST(Network, SubmitRejectsAWalkThatMissesTheDestination) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = shape.index(Point{0, 0});
  msg.route.dst = shape.index(Point{2, 0});
  msg.route.hops = {Hop{0, Dir::Pos, 0}};  // ends at (1,0)
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
}

TEST(Network, SubmitRejectsANegativeVirtualChannel) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = shape.index(Point{0, 0});
  msg.route.dst = shape.index(Point{1, 0});
  msg.route.hops = {Hop{0, Dir::Pos, -1}};
  EXPECT_THROW(net.submit(msg), std::invalid_argument);
  // The rejected routes left nothing behind: a valid message still runs.
  msg.route.hops = {Hop{0, Dir::Pos, 0}};
  net.submit(msg);
  EXPECT_TRUE(net.run().all_delivered());
}

TEST(Network, RunRejectsAnAfterPastTheLastMessage) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  Message msg;
  msg.route.src = shape.index(Point{0, 0});
  msg.route.dst = shape.index(Point{1, 0});
  msg.route.hops = {Hop{0, Dir::Pos, 0}};
  msg.after = 5;  // only one message is ever submitted
  net.submit(msg);
  EXPECT_THROW(net.run(), std::invalid_argument);
}

// --- Pinned step outcomes --------------------------------------------------

// Both engines call the same per-message step, so EngineEquivalence
// cannot see a change to it. The figures below were recorded from the
// full-route scan that the occupied-span step replaced; any change to
// what a step attempts, moves or stalls on shows up here under either
// engine.

// A two-round route: dimension order (x, then y) to `mid` on VC 0, then
// to `to` on VC 1.
Message two_round(const MeshShape& shape, std::int64_t id, Point from,
                  Point mid, Point to, int flits, std::int64_t when,
                  std::int64_t after = -1) {
  Message m;
  m.id = id;
  m.route.src = shape.index(from);
  m.route.dst = shape.index(to);
  Point at = from;
  auto extend = [&](const Point& tgt, int round) {
    for (int dim = 0; dim < shape.dim(); ++dim) {
      while (at[dim] != tgt[dim]) {
        const Dir dir = tgt[dim] > at[dim] ? Dir::Pos : Dir::Neg;
        m.route.hops.push_back(Hop{dim, dir, round});
        at[dim] += static_cast<Coord>(dir_sign(dir));
      }
    }
  };
  extend(mid, 0);
  extend(to, 1);
  m.length_flits = flits;
  m.inject_cycle = when;
  m.after = after;
  return m;
}

struct PinnedRun {
  std::int64_t delivered = 0;
  std::int64_t cycles = 0;
  std::int64_t flits_moved = 0;
  // Sums of the delivered messages' cycle counts, rounded: Accumulator
  // keeps a running mean, so sum() carries rounding error.
  std::int64_t latency_sum = 0;
  std::int64_t queue_sum = 0;
  std::int64_t stall_sum = 0;
  std::int64_t lost = 0;
  std::int64_t poisoned = 0;
  bool deadlocked = false;
  // One letter per message: D delivered, L lost, P poisoned, - pending
  // (empty when the run reports no outcomes).
  std::string outcomes;

  friend bool operator==(const PinnedRun&, const PinnedRun&) = default;
};

std::string describe(const PinnedRun& r) {
  char text[256];
  std::snprintf(text, sizeof text,
                "{%lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %s, \"%s\"}",
                static_cast<long long>(r.delivered),
                static_cast<long long>(r.cycles),
                static_cast<long long>(r.flits_moved),
                static_cast<long long>(r.latency_sum),
                static_cast<long long>(r.queue_sum),
                static_cast<long long>(r.stall_sum),
                static_cast<long long>(r.lost),
                static_cast<long long>(r.poisoned),
                r.deadlocked ? "true" : "false", r.outcomes.c_str());
  return text;
}

PinnedRun pinned_run(const MeshShape& shape, const std::vector<Message>& msgs,
                     SimConfig config, Engine engine) {
  config.engine = engine;
  const FaultSet faults(shape);
  Network net(shape, faults, config);
  for (const Message& m : msgs) net.submit(m);
  const SimResult r = net.run();
  EXPECT_EQ(r.engine, engine);
  PinnedRun out{r.delivered,
                r.cycles,
                r.flits_moved,
                std::llround(r.latency.sum()),
                std::llround(r.queue_cycles.sum()),
                std::llround(r.stall_cycles.sum()),
                r.lost,
                r.poisoned,
                r.deadlocked,
                ""};
  for (const DeliveryOutcome o : r.outcomes) {
    out.outcomes += "-DLP"[static_cast<int>(o)];
  }
  return out;
}

void expect_pinned(const MeshShape& shape, const std::vector<Message>& msgs,
                   const SimConfig& config, const PinnedRun& expected) {
  EnvGuard guard("LAMBMESH_ENGINE");
  ::unsetenv("LAMBMESH_ENGINE");
  for (const Engine engine : {Engine::kCycle, Engine::kEvent}) {
    const PinnedRun got = pinned_run(shape, msgs, config, engine);
    EXPECT_EQ(got, expected) << wormhole::engine_name(engine) << " gave "
                             << describe(got);
  }
}

// 0-, 1- and 2-hop routes, 1-flit messages, worms longer than their
// route's whole buffering, crossing worms that stall on links, channels
// and credits, and `after` chains (one gated on a 0-hop message).
TEST(Network, StepOutcomesPinnedOnMixedRoutes) {
  const MeshShape shape = MeshShape::cube(2, 6);
  SimConfig config;
  config.buffer_flits = 2;
  std::vector<Message> msgs;
  msgs.push_back(two_round(shape, 0, {2, 2}, {2, 2}, {2, 2}, 3, 0));
  msgs.push_back(two_round(shape, 1, {0, 0}, {1, 0}, {1, 0}, 1, 0));
  msgs.push_back(two_round(shape, 2, {0, 1}, {1, 1}, {1, 2}, 1, 1));
  msgs.push_back(two_round(shape, 3, {0, 0}, {3, 0}, {3, 0}, 10, 0));
  msgs.push_back(two_round(shape, 4, {3, 0}, {3, 0}, {3, 3}, 4, 0, 3));
  msgs.push_back(two_round(shape, 5, {3, 3}, {1, 3}, {1, 4}, 5, 0, 4));
  msgs.push_back(two_round(shape, 6, {2, 2}, {5, 2}, {5, 5}, 7, 0, 0));
  msgs.push_back(two_round(shape, 7, {1, 0}, {1, 1}, {2, 1}, 1, 2));
  msgs.push_back(two_round(shape, 8, {1, 0}, {1, 4}, {1, 4}, 6, 0));
  msgs.push_back(two_round(shape, 9, {0, 2}, {5, 2}, {5, 2}, 12, 3));
  msgs.push_back(two_round(shape, 10, {2, 0}, {2, 5}, {4, 5}, 9, 1));
  msgs.push_back(two_round(shape, 11, {4, 4}, {0, 4}, {0, 0}, 14, 2));
  msgs.push_back(two_round(shape, 12, {0, 3}, {4, 3}, {4, 0}, 8, 4, 9));
  msgs.push_back(two_round(shape, 13, {5, 5}, {5, 5}, {5, 4}, 2, 0));
  expect_pinned(shape, msgs, config,
                {14, 37, 421, 181, 58, 4, 0, 0, false, ""});
}

// Seeded random two-round traffic: every 7th message waits on an earlier
// one, lengths run from 1 to 12 flits through 2-flit buffers.
TEST(Network, StepOutcomesPinnedOnRandomTraffic) {
  const MeshShape shape = MeshShape::cube(2, 8);
  SimConfig config;
  config.buffer_flits = 2;
  Rng rng(57);
  auto point = [&] {
    return Point{static_cast<Coord>(rng.below(8)),
                 static_cast<Coord>(rng.below(8))};
  };
  std::vector<Message> msgs;
  for (std::int64_t i = 0; i < 80; ++i) {
    const Point from = point();
    const Point mid = point();
    const Point to = point();
    const int flits = 1 + static_cast<int>(rng.below(12));
    const auto when = static_cast<std::int64_t>(rng.below(60));
    const std::int64_t after =
        i % 7 == 6 ? static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(i)))
                   : -1;
    msgs.push_back(two_round(shape, i, from, mid, to, flits, when, after));
  }
  expect_pinned(shape, msgs, config,
                {80, 117, 5134, 2361, 477, 632, 0, 0, false, ""});
}

// Live faults: one worm is poisoned with flits still at its source, one
// after its tail has left the source, one is lost before it starts and
// takes its `after` dependent with it, one dies with its source node.
TEST(Network, StepOutcomesPinnedUnderLiveFaults) {
  const MeshShape shape = MeshShape::cube(2, 6);
  SimConfig config;
  config.buffer_flits = 2;
  std::vector<Message> msgs;
  msgs.push_back(two_round(shape, 0, {0, 0}, {5, 0}, {5, 0}, 20, 0));
  msgs.push_back(two_round(shape, 1, {0, 2}, {4, 2}, {4, 2}, 3, 0));
  msgs.push_back(two_round(shape, 2, {0, 4}, {5, 4}, {5, 4}, 4, 30));
  msgs.push_back(two_round(shape, 3, {5, 0}, {5, 0}, {5, 3}, 4, 0, 2));
  msgs.push_back(two_round(shape, 4, {0, 5}, {3, 5}, {3, 5}, 5, 0));
  msgs.push_back(two_round(shape, 5, {3, 5}, {3, 5}, {3, 3}, 3, 0, 4));
  msgs.push_back(two_round(shape, 6, {5, 3}, {1, 3}, {1, 3}, 10, 0));
  msgs.push_back(two_round(shape, 7, {1, 1}, {2, 1}, {2, 3}, 6, 2));
  config.fault_schedule.kill_node(6, shape.index(Point{4, 0}));
  config.fault_schedule.kill_link(4, shape.index(Point{3, 2}), 0, Dir::Pos);
  config.fault_schedule.kill_node(10, shape.index(Point{4, 4}));
  config.fault_schedule.kill_node(3, shape.index(Point{5, 3}));
  expect_pinned(shape, msgs, config,
                {3, 12, 74, 26, 7, 0, 2, 3, false, "PPLLDDPD"});
}

// abl06's ring of second-round turns on one VC: the run deadlocks, and
// the stall streak that declares it is part of the pinned cycle count.
TEST(Network, StepOutcomesPinnedOnADeadlock) {
  const MeshShape shape = MeshShape::cube(2, 6);
  SimConfig config;
  config.vcs_per_link = 1;
  config.buffer_flits = 2;
  config.deadlock_threshold = 200;
  std::vector<Message> msgs;
  msgs.push_back(two_round(shape, 0, {1, 1}, {4, 1}, {4, 4}, 24, 0));
  msgs.push_back(two_round(shape, 1, {4, 1}, {4, 4}, {1, 4}, 24, 0));
  msgs.push_back(two_round(shape, 2, {4, 4}, {1, 4}, {1, 1}, 24, 0));
  msgs.push_back(two_round(shape, 3, {1, 4}, {1, 1}, {4, 1}, 24, 0));
  expect_pinned(shape, msgs, config,
                {0, 206, 48, 0, 0, 0, 0, 0, true, "----"});
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
