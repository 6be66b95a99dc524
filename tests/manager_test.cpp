// Tests for the reconfiguration manager and the collective schedules:
// monotone lamb growth across epochs, stale-configuration guards, the
// epoch record every path (reconfigure, restore, open) rebuilds,
// survivor routing, degraded-node preferences, broadcast / exchange
// schedule structure, and dependency-ordered simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "collective/schedule.hpp"
#include "core/verifier.hpp"
#include "manager/machine_manager.hpp"
#include "serve/route_table.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

TEST(Manager, EpochZeroRequiresReconfigure) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  EXPECT_TRUE(mgr.has_pending_reports());
  EXPECT_THROW(mgr.is_survivor(0), std::logic_error);
  const auto report = mgr.reconfigure();
  EXPECT_EQ(report.epoch, 1);
  EXPECT_EQ(report.lambs_total, 0);
  EXPECT_EQ(report.survivors, 64);
  EXPECT_TRUE(mgr.is_survivor(0));
}

TEST(Manager, MonotoneLambGrowthAcrossEpochs) {
  manager::MachineManager mgr(MeshShape::cube(2, 12));
  Rng rng(81);
  mgr.reconfigure();
  std::vector<NodeId> previous;
  for (int epoch = 0; epoch < 5; ++epoch) {
    int added = 0;
    while (added < 6) {
      const NodeId id = (NodeId)rng.below((std::uint64_t)mgr.shape().size());
      if (mgr.faults().node_faulty(id)) continue;
      mgr.report_node_fault(id);
      ++added;
    }
    EXPECT_TRUE(mgr.has_pending_reports());
    const auto report = mgr.reconfigure();
    EXPECT_EQ(report.new_node_faults, 6);
    // Every still-good previous lamb remains a lamb.
    for (NodeId id : previous) {
      if (mgr.faults().node_good(id)) {
        EXPECT_TRUE(std::binary_search(mgr.lambs().begin(), mgr.lambs().end(),
                                       id));
      }
    }
    // The configuration is a valid lamb set.
    EXPECT_TRUE(is_lamb_set(mgr.shape(), mgr.faults(), ascending_rounds(2, 2),
                            mgr.lambs()));
    previous = mgr.lambs();
  }
  EXPECT_EQ(mgr.epoch(), 6);
  EXPECT_EQ((int)mgr.history().size(), 6);
}

// A repeated link report, from either side, changes no fault and so must
// leave the configuration current, as a repeated node report does.
TEST(Manager, DuplicateLinkReportLeavesConfigurationCurrent) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  mgr.report_link_fault(Point{3, 3}, 0, Dir::Pos);
  mgr.reconfigure();
  ASSERT_FALSE(mgr.has_pending_reports());
  mgr.report_link_fault(Point{3, 3}, 0, Dir::Pos);
  mgr.report_link_fault(Point{4, 3}, 0, Dir::Neg);
  EXPECT_FALSE(mgr.has_pending_reports());
  EXPECT_NO_THROW(mgr.survivors());
  EXPECT_EQ(mgr.faults().num_link_faults(), 1);
}

TEST(Manager, FaultOnLambIsAbsorbed) {
  manager::MachineManager mgr(MeshShape::cube(2, 12));
  // The paper's example configuration needs exactly two lambs.
  mgr.report_node_fault(Point{9, 1});
  mgr.report_node_fault(Point{11, 6});
  mgr.report_node_fault(Point{10, 10});
  mgr.reconfigure();
  ASSERT_EQ(mgr.lambs().size(), 2u);
  const NodeId victim = mgr.lambs().front();
  mgr.report_node_fault(victim);
  mgr.reconfigure();
  EXPECT_TRUE(mgr.faults().node_faulty(victim));
  EXPECT_FALSE(
      std::binary_search(mgr.lambs().begin(), mgr.lambs().end(), victim));
  EXPECT_TRUE(is_lamb_set(mgr.shape(), mgr.faults(), ascending_rounds(2, 2),
                          mgr.lambs()));
}

// Out-of-mesh ids are not survivors; they must not index the fault set.
TEST(Manager, IsSurvivorOutsideTheMeshIsFalse) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  mgr.reconfigure();
  EXPECT_FALSE(mgr.is_survivor(-1));
  EXPECT_FALSE(mgr.is_survivor(64));
  EXPECT_TRUE(mgr.is_survivor(0));
  EXPECT_TRUE(mgr.is_survivor(63));
}

// The current epoch's survivors from first principles (Definition 2.6:
// the good nodes that are not lambs), against every view of the epoch
// record: the manager's queries and a route table captured from it.
void expect_survivors_match_brute(const manager::MachineManager& mgr) {
  const NodeId n = mgr.shape().size();
  const std::vector<NodeId>& lambs = mgr.lambs();
  std::vector<NodeId> brute;
  for (NodeId id = 0; id < n; ++id) {
    if (mgr.faults().node_good(id) &&
        std::find(lambs.begin(), lambs.end(), id) == lambs.end()) {
      brute.push_back(id);
    }
  }
  EXPECT_EQ(mgr.survivors(), brute);
  const auto table = serve::RouteTable::capture(mgr, /*published_tick=*/0);
  EXPECT_EQ(table->survivors(), brute);
  EXPECT_EQ(table->epoch(), mgr.epoch());
  for (NodeId id = -1; id <= n; ++id) {
    const bool want = std::binary_search(brute.begin(), brute.end(), id);
    EXPECT_EQ(mgr.is_survivor(id), want) << id;
    EXPECT_EQ(table->covers(id), want) << id;
  }
}

// Random node and link faults on M_2(8), one batch per epoch.
void report_random_faults(manager::MachineManager& mgr, Rng& rng, int nodes,
                          int links) {
  const auto n = static_cast<std::uint64_t>(mgr.shape().size());
  for (int i = 0; i < nodes; ++i) {
    mgr.report_node_fault(static_cast<NodeId>(rng.below(n)));
  }
  for (int i = 0; i < links; ++i) {
    const Point from = mgr.shape().point(static_cast<NodeId>(rng.below(n)));
    const int dim = static_cast<int>(rng.below(2));
    const Dir dir = rng.below(2) == 0 ? Dir::Pos : Dir::Neg;
    Point to;
    if (mgr.shape().neighbor(from, dim, dir, &to)) {
      mgr.report_link_fault(from, dim, dir);
    }
  }
}

TEST(EpochConfig, ReconfigureRebuildsTheRecord) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  Rng rng(101);
  mgr.reconfigure();
  expect_survivors_match_brute(mgr);
  for (int epoch = 0; epoch < 4; ++epoch) {
    report_random_faults(mgr, rng, 3, 2);
    const auto report = mgr.reconfigure();
    EXPECT_EQ(report.survivors,
              static_cast<std::int64_t>(mgr.survivors().size()));
    expect_survivors_match_brute(mgr);
  }
  EXPECT_GT(mgr.lambs().size(), 0u);
}

TEST(EpochConfig, RestoreRebuildsTheRecord) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  Rng rng(103);
  report_random_faults(mgr, rng, 4, 2);
  mgr.reconfigure();
  const manager::Checkpoint early = mgr.checkpoint();
  report_random_faults(mgr, rng, 4, 2);
  mgr.reconfigure();
  expect_survivors_match_brute(mgr);

  mgr.restore(early);
  EXPECT_EQ(mgr.lambs(), early.lambs);
  expect_survivors_match_brute(mgr);

  // A checkpoint with reports pending restores the obligation to
  // reconfigure first; the record the reconfigure builds matches again.
  manager::Checkpoint pending = early;
  for (NodeId id = 0; id < mgr.shape().size(); ++id) {
    if (!std::binary_search(early.node_faults.begin(),
                            early.node_faults.end(), id) &&
        !std::binary_search(early.lambs.begin(), early.lambs.end(), id)) {
      pending.node_faults.push_back(id);
      break;
    }
  }
  std::sort(pending.node_faults.begin(), pending.node_faults.end());
  pending.pending = true;
  mgr.restore(pending);
  EXPECT_TRUE(mgr.has_pending_reports());
  EXPECT_THROW(mgr.survivors(), std::logic_error);
  EXPECT_THROW(mgr.is_survivor(0), std::logic_error);
  EXPECT_THROW(serve::RouteTable::capture(mgr, 0), std::logic_error);
  mgr.reconfigure();
  expect_survivors_match_brute(mgr);
}

// A checkpoint's pending reports are not the epoch's faults: restoring
// it seals the epoch's faults only, so the next reconfigure counts the
// pending ones as new, as the live manager did. The machine-state codec
// carries both lists.
TEST(Manager, RestoredPendingReportsCountAsNew) {
  const MeshShape shape = MeshShape::cube(2, 8);
  manager::MachineManager mgr(shape);
  mgr.report_node_fault(NodeId{10});
  mgr.reconfigure();
  manager::Checkpoint cp = mgr.checkpoint();
  mgr.report_node_fault(NodeId{40});
  mgr.report_link_fault(shape.point(0), 1, Dir::Pos);
  const manager::EpochReport want = mgr.reconfigure();
  ASSERT_EQ(want.new_node_faults, 1);
  ASSERT_EQ(want.new_link_faults, 1);

  cp.pending = true;
  cp.pending_node_faults = {NodeId{40}};
  cp.pending_link_faults = {LinkFault{shape.point(0), 1, Dir::Pos, true}};
  io::ByteWriter w;
  manager::encode_machine_state(w, shape, cp);
  manager::MachineState decoded;
  ASSERT_TRUE(manager::decode_machine_state(w.data(), &decoded).ok());
  EXPECT_EQ(decoded.checkpoint.pending_node_faults, cp.pending_node_faults);
  EXPECT_EQ(decoded.checkpoint.pending_link_faults, cp.pending_link_faults);

  manager::MachineManager restored(shape);
  restored.restore(decoded.checkpoint);
  ASSERT_TRUE(restored.has_pending_reports());
  EXPECT_EQ(restored.snapshot()->faults.f(), 1);
  EXPECT_EQ(restored.faults().f(), 3);
  const manager::EpochReport got = restored.reconfigure();
  EXPECT_EQ(got.new_node_faults, want.new_node_faults);
  EXPECT_EQ(got.new_link_faults, want.new_link_faults);
  EXPECT_EQ(got.total_faults, want.total_faults);
  EXPECT_EQ(restored.lambs(), mgr.lambs());

  // Pending faults without the pending flag are a malformed payload.
  cp.pending = false;
  io::ByteWriter bad;
  manager::encode_machine_state(bad, shape, cp);
  EXPECT_EQ(manager::decode_machine_state(bad.data(), &decoded).code,
            io::LoadError::Code::kMalformed);
}

TEST(EpochConfig, OpenRebuildsTheRecord) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "lamb_epoch_config_open";
  fs::remove_all(dir);
  io::DurableOptions options;
  options.fsync = false;
  Rng rng(107);
  {
    manager::MachineManager mgr(MeshShape::cube(2, 8));
    mgr.enable_durability(dir, options);
    report_random_faults(mgr, rng, 4, 2);
    mgr.reconfigure();
    report_random_faults(mgr, rng, 4, 2);
    mgr.reconfigure();
  }
  {
    const auto mgr = manager::MachineManager::open(dir, {}, 3, nullptr,
                                                   nullptr, options);
    ASSERT_NE(mgr, nullptr);
    EXPECT_EQ(mgr->epoch(), 2);
    expect_survivors_match_brute(*mgr);
    // Journaled reports with no reconfigure reopen as pending.
    report_random_faults(*mgr, rng, 3, 1);
  }
  const auto mgr =
      manager::MachineManager::open(dir, {}, 3, nullptr, nullptr, options);
  ASSERT_NE(mgr, nullptr);
  EXPECT_TRUE(mgr->has_pending_reports());
  mgr->reconfigure();
  expect_survivors_match_brute(*mgr);
  fs::remove_all(dir);
}

TEST(Manager, RoutesExistBetweenAllSurvivors) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  Rng rng(83);
  for (int i = 0; i < 6; ++i) {
    mgr.report_node_fault((NodeId)rng.below((std::uint64_t)64));
  }
  mgr.reconfigure();
  const auto survivors = mgr.survivors();
  for (NodeId a : survivors) {
    for (NodeId b : survivors) {
      if (a == b) continue;
      EXPECT_TRUE(mgr.route(a, b, rng).has_value())
          << a << " -> " << b << " must be routable (lamb guarantee)";
    }
  }
}

TEST(Manager, EpochReportClosesOutRouteLoad) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  Rng rng(91);
  const auto first = mgr.reconfigure();
  EXPECT_EQ(first.routes_vended, 0);  // nothing vended before epoch 1
  EXPECT_EQ(first.route_load_max, 0);

  const auto survivors = mgr.survivors();
  std::int64_t vended = 0;
  for (int i = 0; i < 50; ++i) {
    const NodeId a = survivors[rng.below((std::uint64_t)survivors.size())];
    const NodeId b = survivors[rng.below((std::uint64_t)survivors.size())];
    if (a == b) continue;
    if (mgr.route(a, b, rng).has_value()) ++vended;
  }
  ASSERT_GT(vended, 0);
  // Live view: every vended route charges at least its two endpoints.
  EXPECT_EQ(mgr.route_load().total() >= 2 * vended, true);
  EXPECT_GE(mgr.route_load().max(), 1);
  EXPECT_GE(mgr.route_load().hottest(), 0);

  // The next reconfigure snapshots the epoch's load, then resets it.
  mgr.report_node_fault(Point{3, 3});
  const auto report = mgr.reconfigure();
  EXPECT_EQ(report.routes_vended, vended);
  EXPECT_GE(report.route_load_max, 1);
  EXPECT_GT(report.route_load_mean, 0.0);
  EXPECT_GE(report.route_load_hottest, 0);
  EXPECT_EQ(mgr.route_load().total(), 0);
  EXPECT_EQ(mgr.route_load().hottest(), -1);
}

TEST(Manager, DegradedNodesPreferredAsLambs) {
  // Build a situation needing one lamb from a candidate set, and make
  // one candidate cheap: the solver must pick it.
  manager::MachineManager mgr(MeshShape::cube(2, 12));
  mgr.report_node_fault(Point{9, 1});
  mgr.report_node_fault(Point{11, 6});
  mgr.report_node_fault(Point{10, 10});
  // Paper example: cover picks S8={(11,10)} + D5={(10,11)} (weight 2).
  // Degrading the alternative D2/D6 members does not change that; but
  // degrading nothing still yields a valid monotone config.
  const auto report = mgr.reconfigure();
  EXPECT_EQ(report.lambs_total, 2);
  EXPECT_EQ(report.survivor_value, (double)(144 - 3 - 2));
}

TEST(Manager, RejectsExternallyManagedPredetermined) {
  LambOptions options;
  options.predetermined = {0};
  EXPECT_THROW(manager::MachineManager(MeshShape::cube(2, 4), options),
               std::invalid_argument);
}

// --- Collective schedules ----------------------------------------------------

TEST(Collective, BinomialBroadcastCoversEveryoneOnce) {
  std::vector<NodeId> survivors;
  for (NodeId id = 0; id < 13; ++id) survivors.push_back(id * 3);
  const auto schedule = collective::binomial_broadcast(survivors, 4);
  // ceil(log2(13)) = 4 phases, P-1 messages.
  EXPECT_EQ(schedule.phases, 4);
  EXPECT_EQ(schedule.steps.size(), survivors.size() - 1);
  std::set<NodeId> received{survivors[4]};
  int last_phase = 0;
  for (const auto& step : schedule.steps) {
    EXPECT_GE(step.phase, last_phase);
    last_phase = step.phase;
    EXPECT_TRUE(received.count(step.src)) << "source must already have data";
    EXPECT_TRUE(received.insert(step.dst).second) << "each node receives once";
  }
  EXPECT_EQ(received.size(), survivors.size());
}

TEST(Collective, ExchangeTouchesEveryNodeEachCorePhase) {
  std::vector<NodeId> survivors;
  for (NodeId id = 0; id < 8; ++id) survivors.push_back(id);
  const auto schedule = collective::recursive_doubling_exchange(survivors);
  EXPECT_EQ(schedule.phases, 3);  // log2(8), no fold
  EXPECT_EQ(schedule.steps.size(), 3u * 8u);
}

TEST(Collective, ExchangeFoldsNonPowerOfTwo) {
  std::vector<NodeId> survivors;
  for (NodeId id = 0; id < 10; ++id) survivors.push_back(id);
  const auto schedule = collective::recursive_doubling_exchange(survivors);
  EXPECT_EQ(schedule.phases, 3 + 2);  // fold-in + log2(8) + fold-out
  EXPECT_EQ(schedule.steps.size(), 2u + 3u * 8u + 2u);
}

TEST(Collective, BroadcastSimulationDeliversInPhaseOrder) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng frng(84);
  const FaultSet faults = FaultSet::random_nodes(shape, 5, frng);
  const LambResult lambs = lamb1(shape, faults, {});
  const auto survivors = survivor_nodes(faults, lambs.lambs);
  ASSERT_GE(survivors.size(), 8u);

  wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(85);
  const auto schedule = collective::binomial_broadcast(survivors, 0);
  const auto result = collective::simulate_schedule(
      shape, faults, schedule, routes, wormhole::SimConfig{}, 4, rng);
  EXPECT_TRUE(result.sim.all_delivered());
  EXPECT_FALSE(result.sim.deadlocked);
  EXPECT_EQ(result.messages, (std::int64_t)survivors.size() - 1);
  // Dependencies force at least `phases` sequential message times.
  EXPECT_GE(result.completion_cycles, (std::int64_t)result.phases);
}

TEST(Collective, ExchangeSimulationCompletes) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  const auto survivors = survivor_nodes(faults, {});
  wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(86);
  const auto schedule = collective::recursive_doubling_exchange(survivors);
  const auto result = collective::simulate_schedule(
      shape, faults, schedule, routes, wormhole::SimConfig{}, 4, rng);
  EXPECT_TRUE(result.sim.all_delivered());
  EXPECT_FALSE(result.sim.deadlocked);
}

TEST(Collective, DependencyChainSerializes) {
  // Three chained messages around a triangle of nodes: each waits for
  // the previous delivery, so completion is at least the sum of the
  // individual pipelined latencies.
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(87);
  wormhole::Network net(shape, faults, wormhole::SimConfig{});
  const NodeId a = shape.index(Point{0, 0});
  const NodeId b = shape.index(Point{7, 0});
  const NodeId c = shape.index(Point{7, 7});
  std::int64_t idx = 0;
  std::int64_t expected_serial = 0;
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, c},
                                 std::pair{c, a}}) {
    auto route = routes.build(src, dst, rng);
    ASSERT_TRUE(route.has_value());
    expected_serial += route->length() + 4 - 1;
    wormhole::Message m;
    m.id = idx;
    m.route = std::move(*route);
    m.length_flits = 4;
    m.after = idx - 1;  // first message has after = -1
    net.submit(std::move(m));
    ++idx;
  }
  const auto result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_GE(result.cycles, expected_serial);
}

TEST(Collective, DependentZeroHopMessageWaits) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(88);
  wormhole::Network net(shape, faults, wormhole::SimConfig{});
  auto route = routes.build(0, shape.size() - 1, rng);
  ASSERT_TRUE(route.has_value());
  wormhole::Message first;
  first.id = 0;
  first.route = *route;
  first.length_flits = 3;
  net.submit(first);
  wormhole::Message second;  // zero-hop, but gated on the first
  second.id = 1;
  second.route.src = second.route.dst = shape.size() - 1;
  second.length_flits = 1;
  second.after = 0;
  net.submit(second);
  const auto result = net.run();
  EXPECT_TRUE(result.all_delivered());
  // The zero-hop message could not deliver at cycle 0.
  EXPECT_GT(result.cycles, 1);
}

TEST(Collective, EmptyAndSingletonSurvivorSets) {
  EXPECT_TRUE(collective::binomial_broadcast({}, 0).steps.empty());
  EXPECT_TRUE(collective::binomial_broadcast({7}, 0).steps.empty());
  EXPECT_TRUE(collective::recursive_doubling_exchange({7}).steps.empty());
}

}  // namespace
}  // namespace lamb
