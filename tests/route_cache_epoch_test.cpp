// RouteCache carry-forward across a reconfigure epoch swap: adopt() drops
// exactly the floods the staleness predicate names, retained floods keep
// producing the routes a fresh cache would, dropped endpoints re-vend
// against the new fault set, and no route served by the new epoch's table
// ever crosses a new fault. This is the serving layer's correctness spine
// — RouteTable::capture leans on exactly these properties. The epoch's
// sealed FaultSnapshot is shared, not copied, by the manager, its solver
// context and every table, and concurrent vends across epochs stay legal
// while the manager vends and publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/lamb.hpp"
#include "manager/machine_manager.hpp"
#include "reach/flood_oracle.hpp"
#include "serve/route_service.hpp"
#include "serve/route_table.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

using wormhole::Route;
using wormhole::RouteCache;

// Node sequence a route visits, validated hop by hop.
std::vector<NodeId> walk(const MeshShape& shape, const Route& route) {
  std::vector<NodeId> nodes{route.src};
  Point at = shape.point(route.src);
  for (const auto& hop : route.hops) {
    Point next;
    EXPECT_TRUE(shape.neighbor(at, hop.dim, hop.dir, &next));
    at = next;
    nodes.push_back(shape.index(at));
  }
  EXPECT_EQ(nodes.back(), route.dst);
  return nodes;
}

std::vector<std::pair<NodeId, NodeId>> survivor_pairs(
    const std::vector<NodeId>& survivors, std::size_t count, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < count) {
    const NodeId src =
        survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
    const NodeId dst =
        survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
    if (src != dst) pairs.push_back({src, dst});
  }
  return pairs;
}

TEST(RouteCacheAdopt, EquivalentToInvalidateAndRoutesStayLegal) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  faults.add_node(Point{2, 2});
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  RouteCache warmed(shape, faults, orders);

  std::vector<NodeId> good;
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (faults.node_good(id)) good.push_back(id);
  }
  Rng rng(11);
  const auto pairs = survivor_pairs(good, 48, rng);
  for (const auto& [src, dst] : pairs) {
    ASSERT_TRUE(warmed.build(src, dst, rng).has_value());
  }
  const std::int64_t warmed_entries = warmed.cached_entries();
  ASSERT_GT(warmed_entries, 0);

  // The epoch's fault delta: one more dead node.
  const NodeId victim = shape.index(Point{5, 4});
  faults.add_node(victim);
  RouteCache adopter(shape, faults, orders);
  const auto stats = adopter.adopt(warmed);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->retained + stats->dropped, warmed_entries);
  EXPECT_EQ(adopter.cached_entries(), stats->retained);
  EXPECT_EQ(warmed.cached_entries(), warmed_entries);  // prev untouched

  // The staleness predicate, flood by flood: one forward flood per
  // distinct source and one backward flood per distinct destination, over
  // the old faults; exactly those holding the victim go.
  const FloodOracle flood(shape, warmed.snapshot()->faults);
  std::set<NodeId> sources;
  std::set<NodeId> sinks;
  for (const auto& [src, dst] : pairs) {
    sources.insert(src);
    sinks.insert(dst);
  }
  std::int64_t stale = 0;
  for (const NodeId src : sources) {
    if (flood.reach1_from(shape.point(src), orders[0]).test(victim)) ++stale;
  }
  for (const NodeId dst : sinks) {
    if (flood.reach1_to(shape.point(dst), orders[1]).test(victim)) ++stale;
  }
  EXPECT_GT(stale, 0);
  EXPECT_EQ(stats->dropped, stale);

  // The adopting cache vends what a fresh cache over the new snapshot
  // vends, and legally: retained floods are provably unchanged, dropped
  // endpoints re-flood against the new faults, and same-seeded
  // tie-breaks match.
  RouteCache fresh(adopter.snapshot(), orders);
  for (const auto& [src, dst] : pairs) {
    if (src == victim || dst == victim) continue;
    Rng rng_a(src * 1000 + dst), rng_b(src * 1000 + dst);
    const auto via_adopt = adopter.build(src, dst, rng_a);
    const auto via_fresh = fresh.build(src, dst, rng_b);
    ASSERT_EQ(via_adopt.has_value(), via_fresh.has_value());
    EXPECT_EQ(rng_a.state(), rng_b.state());
    if (!via_adopt) continue;
    const auto nodes = walk(shape, *via_adopt);
    EXPECT_EQ(nodes, walk(shape, *via_fresh));
    for (const NodeId node : nodes) {
      EXPECT_TRUE(faults.node_good(node))
          << "route " << src << "->" << dst << " crosses dead node " << node;
    }
  }
}

TEST(RouteCacheAdopt, LinkDeltaDropsOnlyFloodsHoldingBothEndpoints) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  RouteCache prev(shape, faults, orders);
  Rng rng(23);
  std::vector<NodeId> all;
  for (NodeId id = 0; id < shape.size(); ++id) all.push_back(id);
  for (const auto& [src, dst] : survivor_pairs(all, 32, rng)) {
    ASSERT_TRUE(prev.build(src, dst, rng).has_value());
  }
  faults.add_link(Point{3, 3}, 0, Dir::Pos);
  RouteCache next(shape, faults, orders);
  const auto stats = next.adopt(prev);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->retained + stats->dropped,
            prev.cached_entries());  // prev itself untouched
  // Every adopted flood still routes clear of the dead link: walk each
  // route and assert it never uses the (3,3)->(4,3) channel either way.
  const NodeId a = shape.index(Point{3, 3});
  const NodeId b = shape.index(Point{4, 3});
  for (const auto& [src, dst] : survivor_pairs(all, 32, rng)) {
    Rng tie(5);
    const auto route = next.build(src, dst, tie);
    if (!route) continue;
    const auto nodes = walk(shape, *route);
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      const bool crosses = (nodes[i] == a && nodes[i + 1] == b) ||
                           (nodes[i] == b && nodes[i + 1] == a);
      EXPECT_FALSE(crosses) << "route crosses the dead link";
    }
  }
}

TEST(RouteTableEpochSwap, RetainsDropsAndRevendsAcrossCapture) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  mgr.reconfigure();
  auto t1 = serve::RouteTable::capture(mgr, /*published_tick=*/0);
  ASSERT_TRUE(t1->certified());

  // Warm epoch 1's cache with survivor traffic.
  Rng rng(31);
  const auto pairs = survivor_pairs(t1->survivors(), 64, rng);
  for (const auto& [src, dst] : pairs) {
    ASSERT_TRUE(t1->route(src, dst, rng).has_value());
  }
  const std::int64_t warmed = t1->cached_floods();
  ASSERT_GT(warmed, 0);

  // Epoch swap: one new dead node, carry the surviving floods forward.
  const NodeId victim = t1->survivors()[7];
  mgr.report_node_fault(victim);
  mgr.reconfigure();
  serve::RouteTable::BuildStats stats;
  auto t2 = serve::RouteTable::capture(mgr, /*published_tick=*/1, t1.get(),
                                       &stats);
  EXPECT_EQ(stats.floods_retained + stats.floods_dropped, warmed);
  EXPECT_EQ(t2->cached_floods(), stats.floods_retained);
  EXPECT_EQ(t2->epoch(), t1->epoch() + 1);
  EXPECT_FALSE(t2->covers(victim));

  // Every covered pair re-vends against the new epoch — retained floods
  // and re-floods alike — and no route crosses the new fault.
  ASSERT_TRUE(t2->certified());
  std::int64_t vended = 0;
  for (const auto& [src, dst] : pairs) {
    if (!t2->covers(src, dst)) continue;
    const auto route = t2->route(src, dst, rng);
    ASSERT_TRUE(route.has_value());
    ++vended;
    for (const NodeId node : walk(t2->shape(), *route)) {
      EXPECT_NE(node, victim);
      EXPECT_TRUE(t2->faults().node_good(node));
    }
  }
  EXPECT_GT(vended, 0);
  // The old epoch stays fully usable for in-flight readers (RCU): its
  // routes still answer against ITS fault set.
  ASSERT_TRUE(t1->route(pairs[0].first, pairs[0].second, rng).has_value());
  EXPECT_GE(t2->cached_floods(), stats.floods_retained);
}

TEST(RouteTableEpochSwap, MismatchedTimelineFallsBackToColdCache) {
  manager::MachineManager small(MeshShape::cube(2, 4));
  small.reconfigure();
  auto other = serve::RouteTable::capture(small, 0);
  Rng rng(3);
  const auto pairs = survivor_pairs(other->survivors(), 8, rng);
  for (const auto& [src, dst] : pairs) {
    ASSERT_TRUE(other->route(src, dst, rng).has_value());
  }

  manager::MachineManager mgr(MeshShape::cube(2, 8));
  mgr.reconfigure();
  serve::RouteTable::BuildStats stats;
  auto table = serve::RouteTable::capture(mgr, 1, other.get(), &stats);
  EXPECT_EQ(stats.floods_retained, 0);
  EXPECT_EQ(stats.floods_dropped, 0);
  EXPECT_EQ(table->cached_floods(), 0);
}

// One FaultSet per epoch: the manager's snapshot, the solver context of
// the epoch's outcome and every table captured from it are one object.
void expect_one_fault_set(const manager::MachineManager& mgr) {
  const auto table = serve::RouteTable::capture(mgr, 0);
  const auto again = serve::RouteTable::capture(mgr, 1, table.get());
  EXPECT_EQ(&table->faults(), &mgr.snapshot()->faults);
  EXPECT_EQ(&again->faults(), &mgr.snapshot()->faults);
  EXPECT_EQ(&table->shape(), mgr.snapshot()->shape.get());
  ASSERT_NE(mgr.last_outcome().context, nullptr);
  EXPECT_EQ(mgr.last_outcome().context->snapshot, mgr.snapshot());
  // The working set stays separate: reports land there, not in the seal.
  EXPECT_NE(&mgr.faults(), &mgr.snapshot()->faults);
}

TEST(FaultSnapshotSharing, ManagerSolverAndTablesShareOneFaultSet) {
  manager::MachineManager mgr(MeshShape::cube(2, 12));
  mgr.set_incremental(true);
  mgr.report_node_fault(Point{3, 3});
  // No context yet: the incremental call falls back to the full solve.
  EXPECT_FALSE(mgr.reconfigure().incremental);
  expect_one_fault_set(mgr);
  const FaultSnapshot* first = mgr.snapshot().get();

  mgr.report_node_fault(Point{8, 5});
  EXPECT_EQ(mgr.snapshot().get(), first);  // a report does not reseal
  EXPECT_FALSE(mgr.snapshot()->faults.node_faulty(Point{8, 5}));
  EXPECT_TRUE(mgr.reconfigure().incremental);
  expect_one_fault_set(mgr);
  EXPECT_NE(mgr.snapshot().get(), first);
  EXPECT_TRUE(mgr.snapshot()->faults.node_faulty(Point{8, 5}));
}

// Four threads vend from an old and a new epoch's table (both kept alive)
// and from the newest certified table, while this thread vends through
// the manager into the flood memo the new table shares and publishes new
// tables of that epoch. Every route must stay clear of its own table's
// faults; run under ThreadSanitizer this is the shared-snapshot and
// shared-memo race check.
TEST(FaultSnapshotSharing, ConcurrentVendsAcrossEpochsWhilePublishing) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager mgr(shape);
  for (const Point p : {Point{2, 7}, Point{9, 3}, Point{5, 5}}) {
    mgr.report_node_fault(p);
  }
  mgr.reconfigure();
  serve::RouteService service(mgr, serve::ServiceOptions{}, 0);
  const auto old_table = service.table();
  mgr.report_node_fault(Point{6, 9});
  mgr.reconfigure();
  service.publish(1);
  const auto new_table = service.table();
  ASSERT_NE(&old_table->faults(), &new_table->faults());

  std::atomic<int> illegal{0};
  std::atomic<int> vended{0};
  auto vend_legal = [&](const serve::RouteTable& table, NodeId src,
                        NodeId dst, Rng& rng) {
    if (!table.covers(src, dst)) return;
    const auto route = table.route(src, dst, rng);
    if (!route) {
      ++illegal;  // a certified table covers every survivor pair
      return;
    }
    ++vended;
    for (const NodeId node : walk(table.shape(), *route)) {
      if (table.faults().node_faulty(node)) ++illegal;
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 150; ++i) {
        const auto src = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(shape.size())));
        const auto dst = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(shape.size())));
        vend_legal(*old_table, src, dst, rng);
        vend_legal(*new_table, src, dst, rng);
        vend_legal(*service.last_certified(), src, dst, rng);
      }
    });
  }
  Rng rng(7);
  const std::vector<NodeId> survivors = mgr.survivors();
  for (int i = 0; i < 40; ++i) {
    const NodeId src = survivors[rng.below(survivors.size())];
    const NodeId dst = survivors[rng.below(survivors.size())];
    if (src != dst) {
      EXPECT_TRUE(mgr.route(src, dst, rng).has_value());
    }
    service.publish(2 + i);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(illegal.load(), 0);
  EXPECT_GT(vended.load(), 0);
  EXPECT_EQ(&service.table()->faults(), &mgr.snapshot()->faults);
}

// One flood memo per epoch: the manager's vends and every table captured
// from the epoch fill and read the same memo, and the carry-forward into
// the next epoch's memo runs once, when the manager builds that epoch.
TEST(EpochFloodMemo, ManagerAndTablesShareOneMemo) {
  manager::MachineManager mgr(MeshShape::cube(2, 8));
  mgr.reconfigure();
  const NodeId a = mgr.survivors().front();
  const NodeId b = mgr.survivors().back();
  Rng rng(7);
  ASSERT_TRUE(mgr.route(a, b, rng).has_value());

  // a's forward and b's backward flood, memoized by the manager's vend.
  const auto table = serve::RouteTable::capture(mgr, 0);
  EXPECT_EQ(table->cached_floods(), 2);
  ASSERT_TRUE(table->route(a, b, rng).has_value());
  EXPECT_EQ(table->cached_floods(), 2);

  const auto again = serve::RouteTable::capture(mgr, 1, table.get());
  ASSERT_TRUE(again->route(b, a, rng).has_value());
  EXPECT_EQ(again->cached_floods(), 4);
  EXPECT_EQ(table->cached_floods(), 4);

  // The next epoch's memo carried those four floods forward once; every
  // report of that carry-forward agrees, and a re-publish of the epoch
  // reports none.
  mgr.report_node_fault(mgr.survivors()[5]);
  const manager::EpochReport report = mgr.reconfigure();
  EXPECT_EQ(report.routes_retained + report.routes_dropped, 4);
  serve::RouteTable::BuildStats stats;
  const auto next = serve::RouteTable::capture(mgr, 2, again.get(), &stats);
  EXPECT_EQ(stats.floods_retained, report.routes_retained);
  EXPECT_EQ(stats.floods_dropped, report.routes_dropped);
  EXPECT_EQ(next->cached_floods(), report.routes_retained);
  EXPECT_EQ(table->cached_floods(), 4);  // the old epoch's memo is untouched

  stats = {-1, -1};
  serve::RouteTable::capture(mgr, 3, next.get(), &stats);
  EXPECT_EQ(stats.floods_retained, 0);
  EXPECT_EQ(stats.floods_dropped, 0);
}

// Readers vend on one epoch's table while this thread vends through the
// manager into the same memo and reconfigures, each new epoch adopting
// from the memo the readers are still filling. Under ThreadSanitizer this
// is the race check of the shared memo and of adoption under its lock.
TEST(EpochFloodMemo, ConcurrentVendsWhileReconfiguring) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager mgr(shape);
  mgr.reconfigure();
  std::shared_ptr<const serve::RouteTable> table =
      serve::RouteTable::capture(mgr, 0);

  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + static_cast<std::uint64_t>(t));
      const std::vector<NodeId>& survivors = table->survivors();
      for (int i = 0; i < 150; ++i) {
        const NodeId src = survivors[rng.below(survivors.size())];
        const NodeId dst = survivors[rng.below(survivors.size())];
        if (src != dst && !table->route(src, dst, rng)) ++failed;
      }
    });
  }
  Rng rng(11);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const std::vector<NodeId> survivors = mgr.survivors();
    for (int i = 0; i < 10; ++i) {
      const NodeId src = survivors[rng.below(survivors.size())];
      const NodeId dst = survivors[rng.below(survivors.size())];
      if (src != dst) {
        EXPECT_TRUE(mgr.route(src, dst, rng).has_value());
      }
    }
    mgr.report_node_fault(survivors[rng.below(survivors.size())]);
    const manager::EpochReport report = mgr.reconfigure();
    EXPECT_GT(report.routes_retained + report.routes_dropped, 0);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failed.load(), 0);
}

// An adopted flood is shared by two epochs' memos. Freeing the previous
// epoch's record -- RouteService::publish drops the last reference to the
// old table -- must leave it intact for the threads vending on the new
// epoch from it, and their routes must equal a cold cache's. Under
// ThreadSanitizer this is the race check of a flood whose lifetime spans
// two epochs.
TEST(EpochFloodMemo, AdoptedFloodsOutliveThePreviousEpoch) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager mgr(shape);
  mgr.report_node_fault(Point{4, 4});
  mgr.reconfigure();
  serve::RouteService service(mgr, serve::ServiceOptions{}, 0);
  const std::weak_ptr<const serve::RouteTable> old_table = service.table();

  // Warm the old epoch's memo through the service's table only, so the
  // service holds the last reference to the old record.
  Rng rng(41);
  const auto pairs = survivor_pairs(service.table()->survivors(), 96, rng);
  for (const auto& [src, dst] : pairs) {
    ASSERT_TRUE(service.table()->route(src, dst, rng).has_value());
  }
  mgr.report_node_fault(Point{9, 2});
  const manager::EpochReport report = mgr.reconfigure();
  ASSERT_GT(report.routes_retained, 0);
  const auto next = serve::RouteTable::capture(mgr, 1);
  ASSERT_EQ(next->cached_floods(), report.routes_retained);
  std::vector<std::pair<NodeId, NodeId>> covered;
  for (const auto& [src, dst] : pairs) {
    if (next->covers(src, dst)) covered.push_back({src, dst});
  }

  // Readers vend on the new epoch while this thread publishes it.
  constexpr int kReaders = 4;
  constexpr int kPasses = 3;
  std::vector<std::vector<std::optional<Route>>> routes(kReaders);
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ++started;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < covered.size(); ++i) {
          Rng tie(i);
          routes[static_cast<std::size_t>(t)].push_back(
              next->route(covered[i].first, covered[i].second, tie));
        }
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  service.publish(1);
  EXPECT_TRUE(old_table.expired());  // the old record and memo are freed
  for (std::thread& reader : readers) reader.join();

  RouteCache cold(mgr.snapshot(), mgr.orders());
  for (const auto& vended : routes) {
    ASSERT_EQ(vended.size(), kPasses * covered.size());
    for (std::size_t j = 0; j < vended.size(); ++j) {
      const auto& [src, dst] = covered[j % covered.size()];
      Rng tie(j % covered.size());
      const auto expected = cold.build(src, dst, tie);
      ASSERT_TRUE(expected.has_value());
      ASSERT_TRUE(vended[j].has_value()) << src << "->" << dst;
      EXPECT_EQ(vended[j]->intermediates, expected->intermediates);
      EXPECT_EQ(walk(shape, *vended[j]), walk(shape, *expected));
    }
  }
}

}  // namespace
}  // namespace lamb
