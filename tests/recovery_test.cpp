// Tests for the live-fault / recovery stack: FaultSchedule semantics,
// mid-flight kill handling in the wormhole simulator (lost vs poisoned,
// drained virtual channels, fault diagnostics), the watchdog-precedence
// rule, MachineManager validation + checkpoint/roll-back, graceful
// solver degradation, and the RecoveryDriver's full
// checkpoint -> detect -> roll back -> reconfigure -> replay loop —
// including bit-identical determinism at 1/4/16 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/lamb.hpp"
#include "manager/machine_manager.hpp"
#include "manager/recovery.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "wormhole/fault_schedule.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

using wormhole::DeliveryOutcome;
using wormhole::FaultEvent;
using wormhole::FaultSchedule;
using wormhole::Hop;
using wormhole::Message;
using wormhole::Network;
using wormhole::SimConfig;
using wormhole::SimResult;

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, ValidatesAndRebases) {
  FaultSchedule schedule;
  EXPECT_THROW(schedule.kill_node(-1, 3), std::invalid_argument);
  EXPECT_THROW(schedule.kill_link(-5, 0, 0, Dir::Pos),
               std::invalid_argument);

  schedule.kill_node(10, 3);
  schedule.kill_link(25, 0, 0, Dir::Pos);
  schedule.kill_node(40, 7);
  const FaultSchedule tail = schedule.from_cycle(20);
  ASSERT_EQ(tail.size(), 2);
  // Events at cycle >= 20 survive, rebased by -20.
  EXPECT_EQ(tail.events[0].cycle, 5);
  EXPECT_EQ(tail.events[0].kind, FaultEvent::Kind::kLink);
  EXPECT_EQ(tail.events[1].cycle, 20);
  EXPECT_EQ(tail.events[1].node, 7);
  // A window past every event is empty.
  EXPECT_TRUE(schedule.from_cycle(1000).empty());
}

TEST(FaultSchedule, RandomStormIsSeededAndAvoidsExistingFaults) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  faults.add_node(Point{3, 3});
  Rng rng_a(99), rng_b(99);
  const FaultSchedule a =
      FaultSchedule::random_storm(shape, faults, 4, 2, 500, rng_a);
  const FaultSchedule b =
      FaultSchedule::random_storm(shape, faults, 4, 2, 500, rng_b);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.size(), 6);
  for (const FaultEvent& e : a.events) {
    EXPECT_GE(e.cycle, 0);
    EXPECT_LT(e.cycle, 500);
    EXPECT_TRUE(faults.node_good(e.node));
  }
}

TEST(FaultSchedule, RandomStormNeverDuplicatesALink) {
  // A 2x2 mesh has only 4 undirected links, so drawing 4 kills forces
  // the sampler to re-draw channels it already picked — in either
  // direction. Regression: duplicates used to survive into the schedule
  // and double-count in applied_faults when applied.
  const MeshShape shape = MeshShape::cube(2, 2);
  const FaultSet faults(shape);
  Rng rng(7);
  const FaultSchedule storm =
      FaultSchedule::random_storm(shape, faults, 0, 4, 100, rng);
  EXPECT_EQ(storm.size(), 4);
  std::vector<LinkId> seen;
  for (const FaultEvent& ev : storm.events) {
    ASSERT_EQ(ev.kind, FaultEvent::Kind::kLink);
    Point to;
    ASSERT_TRUE(shape.neighbor(shape.point(ev.node), ev.dim, ev.dir, &to));
    const LinkId forward = shape.link_id(ev.node, ev.dim, ev.dir);
    const LinkId reverse =
        shape.link_id(shape.index(to), ev.dim, opposite(ev.dir));
    for (const LinkId id : {forward, reverse}) {
      EXPECT_TRUE(std::find(seen.begin(), seen.end(), id) == seen.end())
          << "duplicate channel " << id << " in storm";
      seen.push_back(id);
    }
  }
}

// ----------------------------------------------------- live kills in the net

// One-hop-per-cycle straight route along dim 0 from `src`, `hops` steps.
Message straight_message(const MeshShape& shape, Point src, int hops,
                         std::int64_t id, int flits = 4) {
  Message m;
  m.id = id;
  m.route.src = shape.index(src);
  Point at = src;
  for (int h = 0; h < hops; ++h) {
    m.route.hops.push_back(Hop{0, Dir::Pos, 0});
    at[0] += 1;
  }
  m.route.dst = shape.index(at);
  m.length_flits = flits;
  m.inject_cycle = 0;
  return m;
}

TEST(LiveFaults, KillBeforeInjectionIsLostNotPoisoned) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  SimConfig config;
  // Kill the destination before the message's delayed injection.
  config.fault_schedule.kill_node(2, shape.index(Point{5, 0}));
  Network net(shape, faults, config);
  Message m = straight_message(shape, Point{0, 0}, 5, 0);
  m.inject_cycle = 50;
  net.submit(m);
  const SimResult result = net.run();
  EXPECT_EQ(result.delivered, 0);
  EXPECT_EQ(result.lost, 1);
  EXPECT_EQ(result.poisoned, 0);
  EXPECT_EQ(result.faults_applied, 1);
  EXPECT_TRUE(result.all_resolved());
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0], DeliveryOutcome::kLost);
  ASSERT_EQ(result.applied_faults.size(), 1u);
  EXPECT_EQ(result.applied_faults[0].node, shape.index(Point{5, 0}));
}

TEST(LiveFaults, MidFlightKillPoisonsOnlyCrossingMessages) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  SimConfig config;
  // Node (3,0) dies while message 0 is streaming through it; message 1
  // rides a disjoint row and must deliver untouched.
  config.fault_schedule.kill_node(6, shape.index(Point{3, 0}));
  Network net(shape, faults, config);
  net.submit(straight_message(shape, Point{0, 0}, 6, 0, /*flits=*/32));
  net.submit(straight_message(shape, Point{0, 4}, 6, 1, /*flits=*/32));
  const SimResult result = net.run();
  EXPECT_EQ(result.delivered, 1);
  EXPECT_EQ(result.poisoned, 1);
  EXPECT_EQ(result.lost, 0);
  EXPECT_TRUE(result.all_resolved());
  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_EQ(result.outcomes[0], DeliveryOutcome::kPoisoned);
  EXPECT_EQ(result.outcomes[1], DeliveryOutcome::kDelivered);
  EXPECT_GT(result.dead_channels, 0);
}

TEST(LiveFaults, DuplicateKillEventsCountOnce) {
  // Regression: a second kill of an already-dead node, a repeated link
  // kill, and the reverse direction of a dead link all used to land in
  // applied_faults — inflating faults_applied and feeding duplicate
  // reports to the manager. Only the two EFFECTIVE events may count.
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  SimConfig config;
  const NodeId victim = shape.index(Point{3, 0});
  config.fault_schedule.kill_node(2, victim);
  config.fault_schedule.kill_node(5, victim);  // already dead: no-op
  config.fault_schedule.kill_link(3, shape.index(Point{5, 0}), 0, Dir::Pos);
  // Same channel again, then its reverse direction: both no-ops.
  config.fault_schedule.kill_link(6, shape.index(Point{5, 0}), 0, Dir::Pos);
  config.fault_schedule.kill_link(7, shape.index(Point{6, 0}), 0, Dir::Neg);
  Network net(shape, faults, config);
  // A slow disjoint-row message keeps the clock running past cycle 7.
  net.submit(straight_message(shape, Point{0, 4}, 6, 0, /*flits=*/32));
  const SimResult result = net.run();
  EXPECT_EQ(result.delivered, 1);
  EXPECT_EQ(result.faults_applied, 2);
  ASSERT_EQ(result.applied_faults.size(), 2u);
  EXPECT_EQ(result.applied_faults[0].kind, FaultEvent::Kind::kNode);
  EXPECT_EQ(result.applied_faults[0].node, victim);
  EXPECT_EQ(result.applied_faults[1].kind, FaultEvent::Kind::kLink);
  EXPECT_EQ(result.applied_faults[1].cycle, 3);
}

TEST(LiveFaults, HealthyRunPaysNothing) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  Network net(shape, faults, SimConfig{});
  net.submit(straight_message(shape, Point{0, 0}, 5, 0));
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_EQ(result.faults_applied, 0);
  EXPECT_EQ(result.dead_channels, 0);
  // The per-message outcome vector is not even allocated.
  EXPECT_TRUE(result.outcomes.empty());
}

TEST(LiveFaults, KillNeverFabricatesDeadlock) {
  // A kill drains the victim's virtual channels; the surviving message
  // sharing the row must still make progress and deliver.
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  SimConfig config;
  config.vcs_per_link = 1;
  config.buffer_flits = 2;
  config.deadlock_threshold = 300;
  config.fault_schedule.kill_node(8, shape.index(Point{6, 0}));
  Network net(shape, faults, config);
  // Message 0 occupies the row towards the dying node; message 1 follows
  // behind it on the same single-VC channels.
  net.submit(straight_message(shape, Point{0, 0}, 7, 0, /*flits=*/32));
  Message follower = straight_message(shape, Point{0, 0}, 4, 1, 4);
  follower.inject_cycle = 4;
  net.submit(follower);
  const SimResult result = net.run();
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.all_resolved());
  EXPECT_EQ(result.poisoned, 1);
  EXPECT_EQ(result.delivered, 1);
}

// Regression for the watchdog/deadlock precedence rule: a telemetry
// watchdog configured LOOSER than the deadlock threshold is clamped to
// it, so the stall snapshot is never lost to the run dying first.
TEST(LiveFaults, WatchdogNeverLosesToDeadlockThreshold) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  SimConfig config;
  config.vcs_per_link = 1;
  config.buffer_flits = 2;
  config.deadlock_threshold = 200;
  config.telemetry.enabled = true;
  config.telemetry.watchdog_cycles = 5000;  // looser than the threshold
  Network net(shape, faults, config);
  // Two crossing two-round messages sharing single-VC channels: a
  // classic hold-and-wait cycle.
  auto build = [&](Point src, std::vector<Hop> hops, std::int64_t id) {
    Message m;
    m.id = id;
    m.route.src = shape.index(src);
    Point at = src;
    for (const Hop& hop : hops) {
      m.route.hops.push_back(hop);
      at[hop.dim] += static_cast<Coord>(dir_sign(hop.dir));
    }
    m.route.dst = shape.index(at);
    m.length_flits = 24;
    return m;
  };
  net.submit(build(Point{1, 2},
                   {Hop{0, Dir::Pos, 0}, Hop{0, Dir::Pos, 0},
                    Hop{1, Dir::Pos, 1}, Hop{1, Dir::Pos, 1}},
                   0));
  net.submit(build(Point{3, 1},
                   {Hop{1, Dir::Pos, 0}, Hop{1, Dir::Pos, 0},
                    Hop{0, Dir::Neg, 1}, Hop{1, Dir::Neg, 1},
                    Hop{0, Dir::Pos, 1}},
                   1));
  const SimResult result = net.run();
  EXPECT_TRUE(result.deadlocked);
  // Without the clamp the 5000-cycle watchdog would never fire before
  // the 200-cycle deadlock declaration and the report would be null.
  ASSERT_NE(result.stall_report, nullptr);
  EXPECT_GE(result.stall_report->stalled_cycles, 200);
}

// -------------------------------------------------- manager validation

TEST(ManagerValidation, RejectsBadDiagnostics) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  EXPECT_THROW(mgr.report_node_fault(NodeId{-1}), std::invalid_argument);
  EXPECT_THROW(mgr.report_node_fault(NodeId{64}), std::invalid_argument);
  EXPECT_THROW(mgr.report_node_fault(Point{8, 0}), std::invalid_argument);
  EXPECT_THROW(mgr.report_link_fault(Point{0, 9}, 0, Dir::Pos),
               std::invalid_argument);
  EXPECT_THROW(mgr.report_link_fault(Point{0, 0}, 2, Dir::Pos),
               std::invalid_argument);
  // Outward link off the mesh boundary does not exist.
  EXPECT_THROW(mgr.report_link_fault(Point{7, 0}, 0, Dir::Pos),
               std::invalid_argument);
  EXPECT_THROW(mgr.degrade_node(NodeId{64}, 0.5), std::invalid_argument);
  EXPECT_THROW(mgr.degrade_node(NodeId{3}, -0.1), std::invalid_argument);
  EXPECT_THROW(mgr.degrade_node(NodeId{3}, 1.5), std::invalid_argument);
  EXPECT_THROW(
      mgr.degrade_node(NodeId{3}, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  // Nothing leaked into the fault set; the machine still configures.
  mgr.reconfigure();
  EXPECT_EQ(mgr.faults().f(), 0);
}

// ------------------------------------------------ checkpoint / roll-back

TEST(Checkpoint, RestoreRewindsConfigurationState) {
  const MeshShape shape = MeshShape::cube(2, 10);
  manager::MachineManager mgr(shape);
  Rng rng(4242);
  mgr.report_node_fault(NodeId{11});
  mgr.report_link_fault(Point{4, 4}, 1, Dir::Pos);
  mgr.reconfigure();

  EXPECT_THROW(
      {
        manager::MachineManager stale(shape);
        stale.checkpoint();  // epoch 0 is not a valid roll-back target
      },
      std::logic_error);

  const manager::Checkpoint snapshot = mgr.checkpoint();
  EXPECT_EQ(snapshot.epoch, 1);
  EXPECT_EQ(snapshot.node_faults.size(), 1u);
  EXPECT_EQ(snapshot.link_faults.size(), 1u);

  // Diverge: more faults, another epoch, new routes vended.
  mgr.report_node_fault(NodeId{55});
  mgr.report_node_fault(NodeId{77});
  mgr.reconfigure();
  mgr.route(0, 99, rng);
  EXPECT_EQ(mgr.epoch(), 2);
  EXPECT_EQ(mgr.faults().num_node_faults(), 3);

  mgr.restore(snapshot);
  EXPECT_EQ(mgr.epoch(), 1);
  EXPECT_EQ(mgr.faults().num_node_faults(), 1);
  EXPECT_EQ(mgr.faults().num_link_faults(), 1);
  EXPECT_EQ(mgr.lambs(), snapshot.lambs);
  EXPECT_FALSE(mgr.has_pending_reports());
  EXPECT_TRUE(mgr.is_survivor(0));
  EXPECT_FALSE(mgr.is_survivor(11));
  // The rebuilt route cache serves survivor routes immediately.
  const auto route = mgr.route(0, 99, rng);
  ASSERT_TRUE(route.has_value());
  // Re-reporting and reconfiguring from the restored base works.
  mgr.report_node_fault(NodeId{55});
  const auto report = mgr.reconfigure();
  EXPECT_EQ(report.epoch, 2);
  EXPECT_EQ(report.new_node_faults, 1);
}

// ---------------------------------------------------- graceful degradation

TEST(Degradation, UnlimitedBudgetIsCertified) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  Rng rng(7);
  faults = FaultSet::random_nodes(shape, 6, rng);
  const SolveOutcome outcome = solve_lambs(shape, faults, LambOptions{});
  EXPECT_EQ(outcome.status, SolveStatus::kCertified);
  EXPECT_EQ(outcome.rounds, 2);
  EXPECT_EQ(outcome.escalations, 0);
  EXPECT_TRUE(outcome.certified());
  const LambResult direct = lamb1(shape, faults, LambOptions{});
  EXPECT_EQ(outcome.result.lambs, direct.lambs);
}

TEST(Degradation, ExhaustedBudgetReportsUncoveredInsteadOfThrowing) {
  // The second mesh has more than 2^14 nodes: the sample of uncovered
  // pairs is named at every size.
  const std::pair<MeshShape, std::int64_t> inputs[] = {
      {MeshShape::cube(2, 8), 10}, {MeshShape::cube(2, 129), 500}};
  for (const auto& [shape, fault_count] : inputs) {
    SCOPED_TRACE(shape.to_string());
    Rng rng(7);
    const FaultSet faults = FaultSet::random_nodes(shape, fault_count, rng);
    LambOptions options;
    options.budget_seconds = 1e-12;  // adversarial: every phase overruns
    const SolveOutcome outcome = solve_lambs(shape, faults, options);
    EXPECT_EQ(outcome.status, SolveStatus::kUncovered);
    EXPECT_FALSE(outcome.certified());
    EXPECT_EQ(outcome.rounds, 0);
    EXPECT_GT(outcome.escalations, 0);
    // Fallback keeps the predetermined lambs (none here) and names a
    // sample of survivor pairs the stale configuration leaves uncovered.
    EXPECT_TRUE(outcome.result.lambs.empty());
    EXPECT_FALSE(outcome.uncovered_pairs.empty());
  }
}

TEST(Degradation, ManagerSurvivesAdversarialBudget) {
  LambOptions options;
  options.budget_seconds = 1e-12;
  manager::MachineManager mgr(MeshShape::cube(2, 8), options);
  mgr.report_node_fault(NodeId{27});
  const auto report = mgr.reconfigure();  // must not throw
  EXPECT_EQ(report.solve_status, SolveStatus::kUncovered);
  EXPECT_EQ(report.rounds, 0);
  EXPECT_GE(report.uncovered_pairs, 0);
  EXPECT_EQ(mgr.epoch(), 1);
  // Queries still work against the degraded configuration.
  EXPECT_FALSE(mgr.is_survivor(27));
}

// --------------------------------------------------------- recovery loop

struct TrialResult {
  std::vector<manager::RecoveryOutcome> epochs;
  std::vector<manager::EpochReport> history;
};

TrialResult run_trial(int threads, double budget = 0.0) {
  par::set_threads(threads);
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng rng(20020416);
  LambOptions options;
  options.budget_seconds = budget;
  manager::MachineManager mgr(shape, options);
  const FaultSet initial = FaultSet::random_nodes(shape, 5, rng);
  for (NodeId id : initial.node_faults()) mgr.report_node_fault(id);
  mgr.reconfigure();
  manager::RecoveryDriver driver(mgr, manager::RecoveryOptions{});

  TrialResult trial;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<NodeId> survivors = mgr.survivors();
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < 40) {
      const NodeId src =
          survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
      const NodeId dst =
          survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
      if (src != dst) pairs.push_back({src, dst});
    }
    const FaultSchedule storm = FaultSchedule::random_storm(
        shape, mgr.faults(), /*node_kills=*/2, /*link_kills=*/1,
        /*horizon=*/200, rng);
    trial.epochs.push_back(driver.run_epoch(std::move(pairs), storm, rng));
  }
  trial.history = mgr.history();
  par::set_threads(0);
  return trial;
}

TEST(Recovery, StormEpochsCompleteViaRollbackAndReconfigure) {
  const TrialResult trial = run_trial(1);
  std::int64_t rollbacks = 0, reconfigures = 0;
  for (const manager::RecoveryOutcome& out : trial.epochs) {
    EXPECT_TRUE(out.completed);
    // Zero undelivered survivor-to-survivor messages: everything was
    // delivered, dropped (endpoint died), or provably unroutable.
    EXPECT_EQ(out.messages_requested,
              out.messages_delivered + out.messages_dropped +
                  out.messages_unroutable);
    EXPECT_EQ(out.messages_unroutable, 0);  // certified configurations
    EXPECT_EQ(static_cast<int>(out.attempts_log.size()), out.attempts);
    rollbacks += out.rollbacks;
    reconfigures += out.reconfigures;
  }
  // The storms actually struck: the loop rolled back and reconfigured.
  EXPECT_GT(rollbacks, 0);
  EXPECT_GT(reconfigures, 0);
  // Every reconfiguration landed in manager history (initial epoch + one
  // per reconfigure), and lamb growth stayed monotone.
  EXPECT_EQ(static_cast<std::int64_t>(trial.history.size()),
            1 + reconfigures);
  for (std::size_t i = 1; i < trial.history.size(); ++i) {
    EXPECT_GE(trial.history[i].total_faults,
              trial.history[i - 1].total_faults);
  }
}

bool same_report(const manager::EpochReport& a,
                 const manager::EpochReport& b) {
  return a.epoch == b.epoch && a.new_node_faults == b.new_node_faults &&
         a.new_link_faults == b.new_link_faults &&
         a.total_faults == b.total_faults &&
         a.lambs_total == b.lambs_total && a.lambs_new == b.lambs_new &&
         a.survivors == b.survivors &&
         a.survivor_value == b.survivor_value &&
         a.solve_status == b.solve_status && a.rounds == b.rounds &&
         a.routes_vended == b.routes_vended &&
         a.route_load_max == b.route_load_max &&
         a.route_load_hottest == b.route_load_hottest;
}

bool same_outcome(const manager::RecoveryOutcome& a,
                  const manager::RecoveryOutcome& b) {
  return a.completed == b.completed && a.attempts == b.attempts &&
         a.rollbacks == b.rollbacks && a.reconfigures == b.reconfigures &&
         a.clock == b.clock &&
         a.messages_requested == b.messages_requested &&
         a.messages_delivered == b.messages_delivered &&
         a.messages_dropped == b.messages_dropped &&
         a.messages_unroutable == b.messages_unroutable &&
         a.messages_replayed == b.messages_replayed &&
         a.final_epoch == b.final_epoch;
}

TEST(Recovery, BitIdenticalAcrossThreadCounts) {
  const TrialResult t1 = run_trial(1);
  const TrialResult t4 = run_trial(4);
  const TrialResult t16 = run_trial(16);
  ASSERT_EQ(t1.epochs.size(), t4.epochs.size());
  ASSERT_EQ(t1.epochs.size(), t16.epochs.size());
  for (std::size_t i = 0; i < t1.epochs.size(); ++i) {
    EXPECT_TRUE(same_outcome(t1.epochs[i], t4.epochs[i])) << "epoch " << i;
    EXPECT_TRUE(same_outcome(t1.epochs[i], t16.epochs[i])) << "epoch " << i;
  }
  ASSERT_EQ(t1.history.size(), t4.history.size());
  ASSERT_EQ(t1.history.size(), t16.history.size());
  for (std::size_t i = 0; i < t1.history.size(); ++i) {
    EXPECT_TRUE(same_report(t1.history[i], t4.history[i])) << "epoch " << i;
    EXPECT_TRUE(same_report(t1.history[i], t16.history[i])) << "epoch " << i;
  }
}

TEST(Recovery, SimResultBitIdenticalAcrossThreadCounts) {
  // The simulator itself under a fault schedule, compared field by field
  // at different pool sizes (the pool must not leak into sim state).
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  auto run_once = [&](int threads) {
    par::set_threads(threads);
    SimConfig config;
    config.fault_schedule.kill_node(6, shape.index(Point{3, 0}));
    config.fault_schedule.kill_link(9, shape.index(Point{2, 4}), 0,
                                    Dir::Pos);
    Network net(shape, faults, config);
    for (int row = 0; row < 6; ++row) {
      net.submit(straight_message(shape, Point{0, (Coord)row}, 6, row,
                                  /*flits=*/16));
    }
    const SimResult result = net.run();
    par::set_threads(0);
    return result;
  };
  const SimResult a = run_once(1);
  const SimResult b = run_once(4);
  const SimResult c = run_once(16);
  for (const SimResult* r : {&b, &c}) {
    EXPECT_EQ(a.cycles, r->cycles);
    EXPECT_EQ(a.delivered, r->delivered);
    EXPECT_EQ(a.lost, r->lost);
    EXPECT_EQ(a.poisoned, r->poisoned);
    EXPECT_EQ(a.faults_applied, r->faults_applied);
    EXPECT_EQ(a.dead_channels, r->dead_channels);
    EXPECT_EQ(a.flits_moved, r->flits_moved);
    EXPECT_EQ(a.outcomes, r->outcomes);
    EXPECT_EQ(a.applied_faults, r->applied_faults);
  }
}

TEST(Recovery, GivesUpCleanlyWhenMaxAttemptsAreExhausted) {
  obs::MetricsRegistry::global().set_enabled(true);
  const std::int64_t gave_up_before =
      obs::counter("recovery.gave_up").value();

  const MeshShape shape = MeshShape::cube(2, 8);
  manager::MachineManager mgr(shape);
  mgr.reconfigure();
  manager::RecoveryOptions options;
  options.max_attempts = 1;     // exhausted by the very first rollback
  options.message_flits = 16;   // long enough to still be streaming at t=3
  manager::RecoveryDriver driver(mgr, options);

  // The source node dies while its own message is still injecting, so
  // the attempt can never deliver and the single permitted attempt fails.
  FaultSchedule storm;
  const NodeId src = shape.index(Point{0, 0});
  storm.kill_node(3, src);
  Rng rng(7);
  const manager::RecoveryOutcome out =
      driver.run_epoch({{src, shape.index(Point{7, 7})}}, storm, rng);

  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.rollbacks, 1);
  EXPECT_EQ(out.messages_delivered, 0);
  // Giving up on delivery does not mean giving up on diagnosis: the
  // manager already rolled back, ingested the fault, and reconfigured.
  EXPECT_EQ(out.reconfigures, 1);
  EXPECT_FALSE(mgr.is_survivor(src));
  EXPECT_EQ(out.final_epoch, mgr.epoch());
  // Operators can alert on the give-up counter.
  EXPECT_EQ(obs::counter("recovery.gave_up").value(), gave_up_before + 1);
  obs::MetricsRegistry::global().set_enabled(false);
}

TEST(Recovery, AdversarialBudgetNeverThrowsOutOfTheLoop) {
  const TrialResult trial = run_trial(1, /*budget=*/1e-12);
  for (const manager::RecoveryOutcome& out : trial.epochs) {
    // Degraded configurations may leave pairs unroutable, but the loop
    // must terminate with every message accounted for.
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.messages_requested,
              out.messages_delivered + out.messages_dropped +
                  out.messages_unroutable);
  }
  for (const manager::EpochReport& report : trial.history) {
    EXPECT_NE(report.solve_status, SolveStatus::kEscalated);
  }
}

}  // namespace
}  // namespace lamb
