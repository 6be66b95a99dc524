// Tests for the event-driven simulator core: EventQueue ordering (the
// (cycle, seq) total order that makes the engine deterministic),
// cycle-vs-event bit-equality of SimResult on healthy, deadlocked, and
// fault-injected runs, credit exhaustion/return with minimal buffers,
// determinism under concurrent runs, and the LAMBMESH_ENGINE override.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/lamb.hpp"
#include "support/rng.hpp"
#include "wormhole/event_queue.hpp"
#include "wormhole/fault_schedule.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

namespace lamb {
namespace {

using wormhole::Engine;
using wormhole::Event;
using wormhole::EventKind;
using wormhole::EventQueue;
using wormhole::FaultSchedule;
using wormhole::Hop;
using wormhole::Message;
using wormhole::Network;
using wormhole::SimConfig;
using wormhole::SimResult;
using wormhole::TrafficConfig;

// Saves/restores an environment variable around a test so engine
// override tests compose with the CI lane that runs the whole suite
// under LAMBMESH_ENGINE=cycle|event.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// --- EventQueue -------------------------------------------------------------

TEST(EventQueue, PopsInCycleOrder) {
  EventQueue q;
  q.push(30, EventKind::kInject, 0);
  q.push(10, EventKind::kInject, 1);
  q.push(20, EventKind::kFault, 2);
  q.push(5, EventKind::kInject, 3);

  EXPECT_EQ(q.size(), 4);
  EXPECT_EQ(q.next_cycle(), 5);
  std::vector<std::int64_t> cycles;
  while (!q.empty()) cycles.push_back(q.pop().cycle);
  EXPECT_EQ(cycles, (std::vector<std::int64_t>{5, 10, 20, 30}));
  EXPECT_EQ(q.next_cycle(), EventQueue::kNoEvent);
}

TEST(EventQueue, EqualCyclePopsInPushOrder) {
  // Events scheduled for the same cycle must pop in exactly their push
  // order — heap layout, platform, and thread count must not leak into
  // arbitration. Interleave two cycles to stress sift paths.
  EventQueue q;
  for (std::int64_t i = 0; i < 64; ++i) {
    q.push(/*cycle=*/100, EventKind::kInject, /*payload=*/i);
    q.push(/*cycle=*/50, EventKind::kInject, /*payload=*/1000 + i);
  }
  for (std::int64_t i = 0; i < 64; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.cycle, 50);
    EXPECT_EQ(e.payload, 1000 + i);
  }
  for (std::int64_t i = 0; i < 64; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.cycle, 100);
    EXPECT_EQ(e.payload, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearResetsTieBreakCounter) {
  EventQueue q;
  q.push(1, EventKind::kInject, 7);
  q.push(1, EventKind::kInject, 8);
  q.clear();
  EXPECT_TRUE(q.empty());
  // After clear() the tie-break restarts: push order still wins.
  q.push(2, EventKind::kInject, 20);
  q.push(2, EventKind::kInject, 21);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 21);
}

// --- Engine equivalence -----------------------------------------------------

// Field-by-field SimResult comparison. Doubles compare exactly: the two
// engines promise bit-identical results, not merely close ones.
void expect_results_equal(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency_samples.count(), b.latency_samples.count());
  if (a.latency_samples.count() > 0 && b.latency_samples.count() > 0) {
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(a.latency_samples.quantile(p), b.latency_samples.quantile(p));
    }
  }
  EXPECT_EQ(a.hops.mean(), b.hops.mean());
  EXPECT_EQ(a.turns.mean(), b.turns.mean());
  EXPECT_EQ(a.flit_throughput, b.flit_throughput);
  EXPECT_EQ(a.link_load.count(), b.link_load.count());
  EXPECT_EQ(a.link_load.mean(), b.link_load.mean());
  EXPECT_EQ(a.flits_moved, b.flits_moved);
  EXPECT_EQ(a.queue_cycles.mean(), b.queue_cycles.mean());
  EXPECT_EQ(a.queue_cycles.max(), b.queue_cycles.max());
  EXPECT_EQ(a.stall_cycles.mean(), b.stall_cycles.mean());
  EXPECT_EQ(a.stall_cycles.max(), b.stall_cycles.max());
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.poisoned, b.poisoned);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.dead_channels, b.dead_channels);
  EXPECT_EQ(a.applied_faults, b.applied_faults);
  EXPECT_EQ(a.outcomes, b.outcomes);
}

SimResult run_engine(const MeshShape& shape, const FaultSet& faults,
                     const std::vector<Message>& messages,
                     SimConfig config, Engine engine) {
  config.engine = engine;
  Network net(shape, faults, config);
  for (const Message& m : messages) net.submit(m);
  return net.run();
}

// Both engines on uniform traffic over a faulty mesh must agree on
// every SimResult field.
TEST(EngineEquivalence, UniformTrafficMatchesBitForBit) {
  // Neutralize the CI lane's process-wide override so the two runs
  // below really use different engines.
  EnvGuard guard("LAMBMESH_ENGINE");
  ::unsetenv("LAMBMESH_ENGINE");

  const MeshShape shape = MeshShape::cube(3, 6);
  Rng frng(21);
  const FaultSet faults = FaultSet::random_nodes(shape, 5, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));
  TrafficConfig tc;
  tc.num_messages = 300;
  tc.message_flits = 8;
  tc.injection_gap = 0.5;
  Rng rng(22);
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);

  SimConfig config;
  const SimResult cycle = run_engine(shape, faults, traffic.messages,
                                     config, Engine::kCycle);
  const SimResult event = run_engine(shape, faults, traffic.messages,
                                     config, Engine::kEvent);
  EXPECT_EQ(cycle.engine, Engine::kCycle);
  EXPECT_EQ(event.engine, Engine::kEvent);
  EXPECT_GT(cycle.delivered, 0);
  expect_results_equal(cycle, event);
}

// abl06's scenario: four long messages chase each other around a ring
// of second-round turns. One VC deadlocks, two VCs drain — and both
// engines must agree cycle-for-cycle in each regime.
TEST(EngineEquivalence, DeadlockScenarioMatches) {
  EnvGuard guard("LAMBMESH_ENGINE");
  ::unsetenv("LAMBMESH_ENGINE");

  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);

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
    m.length_flits = 24;
    m.inject_cycle = 0;
    return m;
  };
  msgs.push_back(leg(Point{1, 1}, Point{4, 1}, Point{4, 4}, 0));
  msgs.push_back(leg(Point{4, 1}, Point{4, 4}, Point{1, 4}, 1));
  msgs.push_back(leg(Point{4, 4}, Point{1, 4}, Point{1, 1}, 2));
  msgs.push_back(leg(Point{1, 4}, Point{1, 1}, Point{4, 1}, 3));

  SimConfig one_vc;
  one_vc.vcs_per_link = 1;
  one_vc.buffer_flits = 2;
  one_vc.deadlock_threshold = 200;
  const SimResult starved_cycle =
      run_engine(shape, faults, msgs, one_vc, Engine::kCycle);
  const SimResult starved_event =
      run_engine(shape, faults, msgs, one_vc, Engine::kEvent);
  EXPECT_TRUE(starved_cycle.deadlocked);
  EXPECT_TRUE(starved_event.deadlocked);
  expect_results_equal(starved_cycle, starved_event);

  SimConfig two_vc = one_vc;
  two_vc.vcs_per_link = 2;
  const SimResult healthy_cycle =
      run_engine(shape, faults, msgs, two_vc, Engine::kCycle);
  const SimResult healthy_event =
      run_engine(shape, faults, msgs, two_vc, Engine::kEvent);
  EXPECT_TRUE(healthy_cycle.all_delivered());
  EXPECT_TRUE(healthy_event.all_delivered());
  expect_results_equal(healthy_cycle, healthy_event);
}

// Fault events landing in the dead cycles between router activations:
// the event engine fast-forwards over idle gaps, but a scheduled kill
// inside a gap must still apply at its exact cycle in both engines.
TEST(EngineEquivalence, FaultsBetweenActivationsMatch) {
  EnvGuard guard("LAMBMESH_ENGINE");
  ::unsetenv("LAMBMESH_ENGINE");

  const MeshShape shape = MeshShape::cube(3, 6);
  Rng frng(31);
  const FaultSet faults = FaultSet::random_nodes(shape, 4, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));
  TrafficConfig tc;
  tc.num_messages = 40;
  tc.message_flits = 8;
  tc.injection_gap = 50.0;  // long idle gaps between injections
  Rng rng(32);
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);

  Rng srng(33);
  SimConfig config;
  config.fault_schedule = FaultSchedule::random_storm(
      shape, faults, /*node_kills=*/3, /*link_kills=*/2,
      /*horizon=*/1500, srng);
  // Offset the kills so they land mid-gap, not on injection cycles.
  for (auto& ev : config.fault_schedule.events) ev.cycle += 7;

  const SimResult cycle = run_engine(shape, faults, traffic.messages,
                                     config, Engine::kCycle);
  const SimResult event = run_engine(shape, faults, traffic.messages,
                                     config, Engine::kEvent);
  EXPECT_EQ(cycle.faults_applied, config.fault_schedule.size());
  EXPECT_TRUE(cycle.all_resolved());
  expect_results_equal(cycle, event);
}

// --- Credit flow ------------------------------------------------------------

// Credits return within the cycle sweep (downstream flits move before
// upstream ones), so an uncontended worm streams at full rate even
// through one-flit buffers. Credit exhaustion only binds when a head
// blocks and the body piles into the buffers behind it — then buffer
// depth decides how far the body advances during the stall, and with it
// the tail's arrival. Both engines must agree in every regime.
TEST(EngineEquivalence, CreditExhaustionAndReturnWithTinyBuffers) {
  EnvGuard guard("LAMBMESH_ENGINE");
  ::unsetenv("LAMBMESH_ENGINE");

  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);

  auto straight = [&](Point from, int hops, std::int64_t id) {
    Message m;
    m.id = id;
    m.route.src = shape.index(from);
    m.route.dst = shape.index(Point{static_cast<Coord>(from[0] + hops),
                                    from[1]});
    for (int i = 0; i < hops; ++i) {
      m.route.hops.push_back(Hop{0, Dir::Pos, 0});
    }
    m.length_flits = 16;
    return m;
  };

  // Uncontended: a 6-hop worm through one-flit buffers still delivers
  // in the ideal pipelined time (same-cycle credit return).
  SimConfig tiny;
  tiny.vcs_per_link = 1;
  tiny.buffer_flits = 1;
  const Message solo = straight(Point{0, 0}, 6, 0);
  const SimResult solo_cycle =
      run_engine(shape, faults, {solo}, tiny, Engine::kCycle);
  const SimResult solo_event =
      run_engine(shape, faults, {solo}, tiny, Engine::kEvent);
  EXPECT_TRUE(solo_cycle.all_delivered());
  expect_results_equal(solo_cycle, solo_event);

  // Contended: a blocker owns the (5,0)->(6,0) channel, so the long
  // worm's head stalls there and its body piles up behind it. With one
  // credit per channel the pile saturates instantly (credit stalls) and
  // most of the worm sits at the source holding its first channel; deep
  // buffers let the whole body drain forward during the stall, which
  // releases that first channel early for the rival waiting on it.
  const Message blocker = straight(Point{5, 0}, 2, 0);
  const Message worm = straight(Point{0, 0}, 7, 1);
  const Message rival = straight(Point{0, 0}, 1, 2);
  const std::vector<Message> msgs{blocker, worm, rival};
  const SimResult tiny_cycle =
      run_engine(shape, faults, msgs, tiny, Engine::kCycle);
  const SimResult tiny_event =
      run_engine(shape, faults, msgs, tiny, Engine::kEvent);
  EXPECT_TRUE(tiny_cycle.all_delivered());
  EXPECT_GT(tiny_cycle.stall_cycles.max(), 0.0);
  expect_results_equal(tiny_cycle, tiny_event);

  SimConfig roomy = tiny;
  roomy.buffer_flits = 16;
  const SimResult roomy_cycle =
      run_engine(shape, faults, msgs, roomy, Engine::kCycle);
  const SimResult roomy_event =
      run_engine(shape, faults, msgs, roomy, Engine::kEvent);
  EXPECT_TRUE(roomy_cycle.all_delivered());
  EXPECT_LT(roomy_cycle.cycles, tiny_cycle.cycles);
  expect_results_equal(roomy_cycle, roomy_event);
}

// --- Determinism ------------------------------------------------------------

// Concurrent runs (the --threads worker model: one Network per thread)
// must all produce the same SimResult as a serial run. Nothing in the
// event core may depend on scheduling, allocation addresses, or shared
// state.
TEST(EngineEquivalence, DeterministicAcrossConcurrentRuns) {
  const MeshShape shape = MeshShape::cube(3, 6);
  Rng frng(41);
  const FaultSet faults = FaultSet::random_nodes(shape, 5, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));
  TrafficConfig tc;
  tc.num_messages = 200;
  tc.message_flits = 8;
  tc.injection_gap = 0.5;
  Rng rng(42);
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);

  SimConfig config;
  const SimResult baseline = run_engine(shape, faults, traffic.messages,
                                        config, Engine::kEvent);

  constexpr int kThreads = 4;
  std::vector<SimResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = run_engine(
          shape, faults, traffic.messages, config, Engine::kEvent);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const SimResult& r : results) expect_results_equal(baseline, r);
}

// --- LAMBMESH_ENGINE override -----------------------------------------------

TEST(Engine, EnvOverridesConfig) {
  EnvGuard guard("LAMBMESH_ENGINE");

  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  Message m;
  m.id = 0;
  m.route.src = shape.index(Point{0, 0});
  m.route.dst = shape.index(Point{2, 0});
  m.route.hops = {Hop{0, Dir::Pos, 0}, Hop{0, Dir::Pos, 0}};
  m.length_flits = 4;

  ::setenv("LAMBMESH_ENGINE", "cycle", 1);
  SimConfig config;
  config.engine = Engine::kEvent;  // env must win
  Network net(shape, faults, config);
  net.submit(m);
  EXPECT_EQ(net.run().engine, Engine::kCycle);

  ::setenv("LAMBMESH_ENGINE", "event", 1);
  Network net2(shape, faults, config);
  net2.submit(m);
  EXPECT_EQ(net2.run().engine, Engine::kEvent);
}

TEST(Engine, RejectsInvalidEnvValue) {
  EnvGuard guard("LAMBMESH_ENGINE");
  ::setenv("LAMBMESH_ENGINE", "warp", 1);
  EXPECT_THROW(wormhole::engine_from_env(Engine::kCycle),
               std::invalid_argument);
}

}  // namespace
}  // namespace lamb
