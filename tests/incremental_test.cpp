// Equivalence suite for the incremental re-solve path
// (core/incremental.hpp): solve_lambs_incremental must be bit-identical
// to solve_lambs on the same cumulative fault set — across seeded
// multi-fault storms, at several thread-pool widths, through every
// fallback, and at the manager level including route tables and the
// selectively invalidated route cache.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/incremental.hpp"
#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "manager/machine_manager.hpp"
#include "mesh/fault_set.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/route.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

void expect_identical(const SolveOutcome& inc, const SolveOutcome& full) {
  EXPECT_EQ(inc.status, full.status);
  EXPECT_EQ(inc.rounds, full.rounds);
  EXPECT_EQ(inc.escalations, full.escalations);
  EXPECT_EQ(inc.result.lambs, full.result.lambs);
  EXPECT_EQ(inc.result.stats.p, full.result.stats.p);
  EXPECT_EQ(inc.result.stats.q, full.result.stats.q);
  EXPECT_EQ(inc.result.stats.relevant_ses, full.result.stats.relevant_ses);
  EXPECT_EQ(inc.result.stats.relevant_des, full.result.stats.relevant_des);
  // Exact double equality: the warm-started cover must extract the very
  // same cut, not a same-weight one.
  EXPECT_EQ(inc.result.stats.cover_weight, full.result.stats.cover_weight);
  EXPECT_EQ(inc.uncovered_pairs, full.uncovered_pairs);
}

NodeId random_good_node(const MeshShape& shape, const FaultSet& faults,
                        Rng& rng) {
  for (;;) {
    const NodeId id =
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(shape.size())));
    if (faults.node_good(id)) return id;
  }
}

// Which link faults a storm mixes in with its node faults.
enum class Links { kNone, kBidirectional, kDirected };

// Adds one random link fault that blocks a not-yet-faulty direction:
// bidirectional, or a single direction for Links::kDirected.
void add_random_link(const MeshShape& shape, FaultSet& faults, Rng& rng,
                     Links kind) {
  for (;;) {
    const Point from = shape.point(
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(shape.size()))));
    const int dim = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(shape.dim())));
    const Dir dir = rng.below(2) == 0 ? Dir::Pos : Dir::Neg;
    Point nb;
    if (!shape.neighbor(from, dim, dir, &nb)) continue;
    if (kind == Links::kDirected) {
      if (faults.link_faulty(from, dim, dir)) continue;
      faults.add_directed_link(from, dim, dir);
      return;
    }
    if (faults.link_faulty(from, dim, dir) &&
        faults.link_faulty(nb, dim, opposite(dir))) {
      continue;
    }
    faults.add_link(from, dim, dir);
    return;
  }
}

// Runs a storm: `initial` node faults up front, then `epochs` epochs of
// `per_epoch` new faults each (half of them links, unless kNone),
// chaining solve_lambs_incremental and checking it against a from-scratch
// solve every epoch. Returns how many epochs the incremental path
// actually produced (vs fell back).
int run_storm(const MeshShape& shape, std::uint64_t seed, int initial,
              int epochs, int per_epoch, Links links) {
  Rng rng(seed);
  FaultSet faults(shape);
  for (int i = 0; i < initial; ++i) {
    faults.add_node(random_good_node(shape, faults, rng));
  }
  LambOptions options;
  options.keep_context = true;
  SolveOutcome prev = solve_lambs(shape, faults, options);
  EXPECT_NE(prev.context, nullptr);
  int used = 0;
  for (int e = 0; e < epochs; ++e) {
    for (int i = 0; i < per_epoch; ++i) {
      if (links != Links::kNone && rng.below(2) == 0) {
        add_random_link(shape, faults, rng, links);
      } else {
        faults.add_node(random_good_node(shape, faults, rng));
      }
    }
    IncrementalStats stats;
    SolveOutcome next =
        solve_lambs_incremental(seal(faults), prev, options, 3, &stats);
    LambOptions cold = options;
    cold.keep_context = false;
    const SolveOutcome full = solve_lambs(shape, faults, cold);
    expect_identical(next, full);
    if (stats.used) {
      ++used;
      EXPECT_EQ(stats.fallback, IncrementalFallback::kNone);
      EXPECT_GT(stats.partition_cells_reused, 0);
    }
    prev = std::move(next);
  }
  return used;
}

TEST(Incremental, NodeStormMatchesFullSolve) {
  const int used =
      run_storm(MeshShape::cube(2, 16), 901, 10, 8, 1, Links::kNone);
  // The point of the suite is equivalence, but it is vacuous if the
  // incremental path never engages.
  EXPECT_GT(used, 0);
}

TEST(Incremental, LinkStormMatchesFullSolve) {
  const int used = run_storm(MeshShape::cube(2, 14), 902, 8, 8, 1,
                             Links::kBidirectional);
  EXPECT_GT(used, 0);
}

TEST(Incremental, DirectedLinkStormMatchesFullSolve) {
  // Single-direction link faults take the incremental path too: the route
  // masks keep only rows on the fault's `from` side.
  const int epochs = 12;
  const int used =
      run_storm(MeshShape::cube(2, 14), 908, 8, epochs, 1, Links::kDirected);
  EXPECT_GT(used, epochs / 2);
}

// Whether the pi-route from v to w steps from `from` straight to `to`.
bool route_steps(const MeshShape& shape, const Point& v, const Point& w,
                 const DimOrder& order, const Point& from, const Point& to) {
  const std::vector<Point> nodes = route_nodes(shape, v, w, order);
  for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
    if (nodes[h] == from && nodes[h + 1] == to) return true;
  }
  return false;
}

// The link delta case by case: a directed fault a -> a+e0, crossed
// forward by routes from rows with v[0] < a[0] and v[0] == a[0] and
// backward (still open) by rows with v[0] > a[0]+1; plus a bidirectional
// fault c <-> c+e1 whose c -> c+e1 direction was already dead. The
// incremental matrices must equal a full capture of the new set.
TEST(Incremental, ReachDeltaAppliesDirectedAndHalfDeadLinksExactly) {
  const MeshShape shape = MeshShape::cube(2, 12);
  const MultiRoundOrder orders = {DimOrder::ascending(2),
                                  DimOrder::descending(2)};
  Rng rng(909);
  FaultSet before(shape);
  for (int i = 0; i < 14; ++i) {
    before.add_node(random_good_node(shape, before, rng));
  }
  const Point c{8, 2};
  before.add_directed_link(c, 1, Dir::Pos);
  const Point a{8, 1};
  FaultSet after(before, shape);
  after.add_directed_link(a, 0, Dir::Pos);
  after.add_link(c, 1, Dir::Pos);

  const ReachComputation before_reach =
      compute_reachability(shape, before, orders);
  const ReachComputation want = compute_reachability(shape, after, orders);

  // The fixture must reach every case, judged by route walks over the new
  // partitions (independent of the masks under test).
  const Point b{a[0] + 1, a[1]};
  const Point c1{c[0], c[1] + 1};
  int flips_below = 0;
  int flips_at = 0;
  int open_beyond = 0;
  int half_dead_flips = 0;
  for (std::size_t u = 0; u < orders.size(); ++u) {
    const EquivPartition& ses = want.ses[u];
    const EquivPartition& des = want.des[u];
    for (std::int64_t i = 0; i < ses.size(); ++i) {
      const Point v = ses.rep(i);
      for (std::int64_t j = 0; j < des.size(); ++j) {
        const Point w = des.rep(j);
        const bool was_open = route_clear(shape, before, v, w, orders[u]);
        if (was_open && route_steps(shape, v, w, orders[u], a, b)) {
          if (v[0] < a[0]) ++flips_below;
          if (v[0] == a[0]) ++flips_at;
        }
        if (v[0] > b[0] && want.r[u].get(i, j) &&
            route_steps(shape, v, w, orders[u], b, a)) {
          ++open_beyond;
        }
        if (was_open && route_steps(shape, v, w, orders[u], c1, c)) {
          ++half_dead_flips;
        }
      }
    }
  }
  EXPECT_GT(flips_below, 0);
  EXPECT_GT(flips_at, 0);
  EXPECT_GT(open_beyond, 0);
  EXPECT_GT(half_dead_flips, 0);

  const std::optional<FaultDelta> delta = fault_delta(before, after);
  ASSERT_TRUE(delta.has_value());
  ASSERT_TRUE(delta->nodes.empty());
  ASSERT_EQ(delta->links.size(), 2u);
  ReachComputation got;
  ReachDelta counts;
  ASSERT_TRUE(compute_reachability_incremental(
      shape, after, orders, {}, delta->links, before_reach, &got, &counts));
  EXPECT_EQ(got.rk, want.rk);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.inters, want.inters);
  EXPECT_GT(counts.blocks_recomputed, 0);
}

// micro_core's ReachDeltaCase: M_3(16) with 164 random node faults (seed
// 11), k = 2, and the first candidate delta (Rng seed 12) whose partition
// repair does not bail: one new node fault, or one new bidirectional
// link from a good node to its good +e0 neighbour. Pins the reuse
// counters that EpochReport, the flight recorder and micro_recovery
// report.
TEST(Incremental, ReachDeltaCountersPinned) {
  const MeshShape shape = MeshShape::cube(3, 16);
  const MultiRoundOrder orders = ascending_rounds(3, 2);
  Rng fault_rng(11);
  const FaultSet before = FaultSet::random_nodes(shape, 164, fault_rng);
  const ReachComputation prev = compute_reachability(shape, before, orders);
  for (const bool link : {false, true}) {
    SCOPED_TRACE(link ? "link" : "node");
    Rng rng(12);
    ReachDelta counts;
    ReachComputation got;
    for (;;) {
      const Point p = shape.point(static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(shape.size()))));
      Point nb = p;
      nb[0] += 1;
      if (before.node_faulty(p) || (link && nb[0] >= shape.width(0)) ||
          (link && before.node_faulty(nb))) {
        continue;
      }
      std::vector<Point> delta_nodes;
      std::vector<LinkFault> delta_links;
      FaultSet after(before, shape);
      if (link) {
        delta_links.push_back(LinkFault{p, 0, Dir::Pos, true});
        after.add(delta_links.back());
      } else {
        delta_nodes.push_back(p);
        after.add_node(p);
      }
      counts = ReachDelta{};
      if (compute_reachability_incremental(shape, after, orders, delta_nodes,
                                           delta_links, prev, &got, &counts)) {
        const ReachComputation full =
            compute_reachability(shape, after, orders);
        EXPECT_EQ(got.rk, full.rk);
        EXPECT_EQ(got.r, full.r);
        EXPECT_EQ(got.inters, full.inters);
        break;
      }
    }
    const ReachDelta want = link ? ReachDelta{636, 15, 105747, 147}
                                 : ReachDelta{609, 45, 106059, 806};
    EXPECT_EQ(counts.partition_cells_reused, want.partition_cells_reused);
    EXPECT_EQ(counts.partition_cells_recomputed,
              want.partition_cells_recomputed);
    EXPECT_EQ(counts.blocks_reused, want.blocks_reused);
    EXPECT_EQ(counts.blocks_recomputed, want.blocks_recomputed);
  }
}

TEST(Incremental, BurstStormMatchesFullSolve) {
  // Multi-fault epochs stress the bail-to-full region-merge logic.
  run_storm(MeshShape::cube(2, 16), 903, 6, 5, 4, Links::kBidirectional);
}

TEST(Incremental, ThreeDimensionalStormMatchesFullSolve) {
  const int used =
      run_storm(MeshShape::cube(3, 8), 904, 8, 6, 1, Links::kNone);
  EXPECT_GT(used, 0);
}

TEST(Incremental, EquivalentAtEveryPoolWidth) {
  for (const int threads : {1, 4, 16}) {
    SCOPED_TRACE(threads);
    par::set_threads(threads);
    const int used =
        run_storm(MeshShape::cube(2, 16), 905, 10, 5, 1, Links::kNone);
    EXPECT_GT(used, 0);
  }
  par::set_threads(0);
}

TEST(Incremental, NoContextFallsBack) {
  const MeshShape shape = MeshShape::cube(2, 12);
  Rng rng(906);
  FaultSet faults(shape);
  for (int i = 0; i < 6; ++i) {
    faults.add_node(random_good_node(shape, faults, rng));
  }
  LambOptions options;  // keep_context off: prev carries no context
  const SolveOutcome prev = solve_lambs(shape, faults, options);
  EXPECT_EQ(prev.context, nullptr);
  faults.add_node(random_good_node(shape, faults, rng));
  IncrementalStats stats;
  const SolveOutcome next =
      solve_lambs_incremental(seal(faults), prev, options, 3, &stats);
  EXPECT_FALSE(stats.used);
  EXPECT_EQ(stats.fallback, IncrementalFallback::kNoContext);
  expect_identical(next, solve_lambs(shape, faults, options));
}

TEST(Incremental, NotSupersetFallsBack) {
  const MeshShape shape = MeshShape::cube(2, 12);
  FaultSet solved(shape);
  solved.add_node(Point{3, 3});
  solved.add_node(Point{8, 8});
  LambOptions options;
  options.keep_context = true;
  const SolveOutcome prev = solve_lambs(shape, solved, options);
  ASSERT_NE(prev.context, nullptr);
  // A fault the context knows about is gone: roll-back, not growth.
  FaultSet rolled(shape);
  rolled.add_node(Point{3, 3});
  rolled.add_node(Point{5, 9});
  IncrementalStats stats;
  const SolveOutcome next =
      solve_lambs_incremental(seal(rolled), prev, options, 3, &stats);
  EXPECT_FALSE(stats.used);
  EXPECT_EQ(stats.fallback, IncrementalFallback::kNotSuperset);
  expect_identical(next, solve_lambs(shape, rolled, options));
}

TEST(Incremental, ChangedOrdersFallBack) {
  const MeshShape shape = MeshShape::cube(2, 12);
  FaultSet faults(shape);
  faults.add_node(Point{4, 4});
  LambOptions options;
  options.keep_context = true;
  const SolveOutcome prev = solve_lambs(shape, faults, options);
  ASSERT_NE(prev.context, nullptr);
  faults.add_node(Point{9, 2});
  LambOptions three = options;
  three.rounds = 3;
  IncrementalStats stats;
  const SolveOutcome next =
      solve_lambs_incremental(seal(faults), prev, three, 3, &stats);
  EXPECT_FALSE(stats.used);
  EXPECT_EQ(stats.fallback, IncrementalFallback::kShapeMismatch);
  expect_identical(next, solve_lambs(shape, faults, three));
}

TEST(Incremental, TinyBudgetFallsBackAndDegradesIdentically) {
  const MeshShape shape = MeshShape::cube(2, 12);
  Rng rng(907);
  FaultSet faults(shape);
  for (int i = 0; i < 6; ++i) {
    faults.add_node(random_good_node(shape, faults, rng));
  }
  LambOptions options;
  options.keep_context = true;
  const SolveOutcome prev = solve_lambs(shape, faults, options);
  ASSERT_NE(prev.context, nullptr);
  faults.add_node(random_good_node(shape, faults, rng));
  // A budget this small trips at the first cooperative checkpoint, so the
  // run is still deterministic (see LambOptions::budget_seconds).
  LambOptions strangled = options;
  strangled.budget_seconds = 1e-12;
  IncrementalStats stats;
  const SolveOutcome next =
      solve_lambs_incremental(seal(faults), prev, strangled, 3, &stats);
  EXPECT_FALSE(stats.used);
  EXPECT_EQ(stats.fallback, IncrementalFallback::kBudgetExceeded);
  expect_identical(next, solve_lambs(shape, faults, strangled));
  EXPECT_EQ(next.status, SolveStatus::kUncovered);
}

TEST(Incremental, DegradedValuesMidStormStayEquivalent) {
  const MeshShape shape = MeshShape::cube(2, 14);
  Rng rng(908);
  FaultSet faults(shape);
  std::vector<double> values(static_cast<std::size_t>(shape.size()), 1.0);
  for (int i = 0; i < 8; ++i) {
    faults.add_node(random_good_node(shape, faults, rng));
  }
  LambOptions options;
  options.keep_context = true;
  options.node_values = &values;
  SolveOutcome prev = solve_lambs(shape, faults, options);
  ASSERT_NE(prev.context, nullptr);
  for (int e = 0; e < 4; ++e) {
    faults.add_node(random_good_node(shape, faults, rng));
    // The matrices are value-independent, so re-weighting between epochs
    // must not void the reuse (the cover phase recomputes weights).
    values[static_cast<std::size_t>(random_good_node(shape, faults, rng))] =
        0.25;
    IncrementalStats stats;
    SolveOutcome next =
        solve_lambs_incremental(seal(faults), prev, options, 3, &stats);
    LambOptions cold = options;
    cold.keep_context = false;
    expect_identical(next, solve_lambs(shape, faults, cold));
    prev = std::move(next);
  }
}

// --------------------------------------------------- route-cache layer

void expect_same_route(const std::optional<wormhole::Route>& a,
                       const std::optional<wormhole::Route>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->src, b->src);
  EXPECT_EQ(a->dst, b->dst);
  EXPECT_EQ(a->intermediates, b->intermediates);
  ASSERT_EQ(a->hops.size(), b->hops.size());
  for (std::size_t i = 0; i < a->hops.size(); ++i) {
    EXPECT_EQ(a->hops[i].dim, b->hops[i].dim);
    EXPECT_EQ(a->hops[i].dir, b->hops[i].dir);
    EXPECT_EQ(a->hops[i].vc, b->hops[i].vc);
  }
}

TEST(Incremental, RouteCacheSelectiveInvalidation) {
  const MeshShape shape = MeshShape::cube(2, 10);
  FaultSet faults(shape);
  // (8,9) and (9,8) cut the corner (9,9) off from the rest of the mesh
  // under XY routing, in both directions.
  faults.add_node(Point{8, 9});
  faults.add_node(Point{9, 8});
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  wormhole::RouteCache cache(shape, faults, orders);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng pick(910);
  while (pairs.size() < 12) {
    const NodeId s = random_good_node(shape, faults, pick);
    const NodeId d = random_good_node(shape, faults, pick);
    const Point sp = shape.point(s);
    const Point dp = shape.point(d);
    if (s == d || sp[0] > 7 || sp[1] > 7 || dp[0] > 7 || dp[1] > 7) continue;
    pairs.emplace_back(s, d);
  }
  Rng warmup(911);
  for (const auto& [s, d] : pairs) cache.build(s, d, warmup);
  const std::int64_t before = cache.cached_entries();
  EXPECT_GT(before, 0);

  // The shielded corner dies: no cached flood can contain it, so the
  // next epoch's cache adopts every flood.
  faults.add_node(Point{9, 9});
  wormhole::RouteCache quiet(shape, faults, orders);
  const auto corner = quiet.adopt(cache);
  ASSERT_TRUE(corner.has_value());
  EXPECT_EQ(corner->retained, before);
  EXPECT_EQ(corner->dropped, 0);

  // A central link dies: floods holding both endpoints must go, and
  // exactly those (the staleness predicate, checked flood by flood).
  faults.add_link(Point{1, 1}, 0, Dir::Pos);
  wormhole::RouteCache loud(shape, faults, orders);
  const auto central = loud.adopt(quiet);
  ASSERT_TRUE(central.has_value());
  EXPECT_EQ(central->retained + central->dropped, before);
  EXPECT_GT(central->dropped, 0);
  EXPECT_EQ(loud.cached_entries(), central->retained);
  // The cached floods are one forward flood per distinct source and one
  // backward flood per distinct destination, over the pre-link faults.
  const FloodOracle flood(shape, quiet.snapshot()->faults);
  const NodeId a = shape.index(Point{1, 1});
  const NodeId b = shape.index(Point{2, 1});
  std::set<NodeId> sources;
  std::set<NodeId> sinks;
  for (const auto& [s, d] : pairs) {
    sources.insert(s);
    sinks.insert(d);
  }
  std::int64_t holding_both = 0;
  for (const NodeId s : sources) {
    const Bits f = flood.reach1_from(shape.point(s), orders[0]);
    if (f.test(a) && f.test(b)) ++holding_both;
  }
  for (const NodeId d : sinks) {
    const Bits f = flood.reach1_to(shape.point(d), orders[1]);
    if (f.test(a) && f.test(b)) ++holding_both;
  }
  EXPECT_EQ(central->dropped, holding_both);

  // Every route the adopting cache now vends matches a cache built from
  // scratch against the new fault set, under identical rng streams.
  wormhole::RouteCache fresh(shape, faults, orders);
  Rng ra(912), rb(912);
  for (const auto& [s, d] : pairs) {
    expect_same_route(loud.build(s, d, ra), fresh.build(s, d, rb));
  }
}

// ------------------------------------------------------- manager layer

TEST(Incremental, ManagerMatchesFullSolveManager) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager inc(shape);
  manager::MachineManager full(shape);
  inc.set_incremental(true);
  full.set_incremental(false);
  inc.reconfigure();
  full.reconfigure();
  Rng rng(913);
  int incremental_epochs = 0;
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 2; ++i) {
      const NodeId id = random_good_node(shape, inc.faults(), rng);
      inc.report_node_fault(id);
      full.report_node_fault(id);
    }
    const auto ri = inc.reconfigure();
    const auto rf = full.reconfigure();
    EXPECT_FALSE(rf.incremental);
    if (ri.incremental) ++incremental_epochs;
    EXPECT_EQ(inc.lambs(), full.lambs());
    EXPECT_EQ(ri.lambs_total, rf.lambs_total);
    EXPECT_EQ(ri.survivors, rf.survivors);
    EXPECT_EQ(ri.rounds, rf.rounds);
    EXPECT_EQ(ri.survivor_value, rf.survivor_value);
    // Route tables: identical rng streams must yield identical routes.
    Rng ra(1000 + static_cast<std::uint64_t>(e));
    Rng rb(1000 + static_cast<std::uint64_t>(e));
    for (int t = 0; t < 10; ++t) {
      const NodeId s = random_good_node(shape, inc.faults(), ra);
      const NodeId d = random_good_node(shape, inc.faults(), rb);
      if (!inc.is_survivor(s) || !inc.is_survivor(d) || s == d) continue;
      expect_same_route(inc.route(s, d, ra), full.route(s, d, rb));
    }
  }
  EXPECT_GT(incremental_epochs, 0);
}

TEST(Incremental, ManagerCountsRetainedAndDroppedRoutes) {
  const MeshShape shape = MeshShape::cube(2, 10);
  manager::MachineManager mgr(shape);
  mgr.set_incremental(true);
  // Shield the corner (9,9) first (see RouteCacheSelectiveInvalidation).
  mgr.report_node_fault(Point{8, 9});
  mgr.report_node_fault(Point{9, 8});
  mgr.reconfigure();
  Rng rng(914);
  int vended = 0;
  while (vended < 20) {
    const NodeId s = random_good_node(shape, mgr.faults(), rng);
    const NodeId d = random_good_node(shape, mgr.faults(), rng);
    const Point sp = shape.point(s);
    const Point dp = shape.point(d);
    if (s == d || sp[0] > 7 || sp[1] > 7 || dp[0] > 7 || dp[1] > 7) continue;
    if (!mgr.is_survivor(s) || !mgr.is_survivor(d)) continue;
    if (mgr.route(s, d, rng)) ++vended;
  }
  // The shielded corner dies: every cached flood survives.
  mgr.report_node_fault(Point{9, 9});
  const auto quiet = mgr.reconfigure();
  EXPECT_GT(quiet.routes_retained, 0);
  EXPECT_EQ(quiet.routes_dropped, 0);
  // A central node dies: it sits in (nearly) every flood.
  mgr.report_node_fault(Point{5, 5});
  const auto loud = mgr.reconfigure();
  EXPECT_GT(loud.routes_dropped, 0);
}

TEST(Incremental, RestoreForcesFullSolve) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager mgr(shape);
  mgr.set_incremental(true);
  mgr.reconfigure();
  mgr.report_node_fault(Point{3, 3});
  mgr.reconfigure();
  const auto checkpoint = mgr.checkpoint();
  mgr.report_node_fault(Point{7, 7});
  const auto before = mgr.reconfigure();
  EXPECT_TRUE(before.incremental);
  mgr.restore(checkpoint);
  // The rolled-back fault set is NOT a superset of the solved context's
  // ({3,3}+{7,7}): the solver's own kNotSuperset guard must reject the
  // surviving context and re-solve fully and correctly.
  mgr.report_node_fault(Point{9, 4});
  const auto after = mgr.reconfigure();
  EXPECT_FALSE(after.incremental);
  manager::MachineManager fresh(shape);
  fresh.set_incremental(false);
  fresh.report_node_fault(Point{3, 3});
  fresh.report_node_fault(Point{9, 4});
  fresh.reconfigure();
  EXPECT_EQ(mgr.lambs(), fresh.lambs());
}

TEST(Incremental, RollbackThenSupersetStaysIncremental) {
  // The recovery loop's shape: checkpoint right after a reconfigure,
  // roll back to it, report the storm faults, reconfigure. The restored
  // state is exactly what the kept context was solved for, so this
  // reconfigure — the recovery critical path — must use the O(delta)
  // path, and still match the from-scratch solve bit for bit.
  const MeshShape shape = MeshShape::cube(2, 12);
  const std::vector<Point> background = {Point{3, 3}, Point{6, 2},
                                         Point{9, 8}, Point{1, 5}};
  const std::vector<Point> storm = {Point{7, 7}, Point{10, 4}};
  manager::MachineManager mgr(shape);
  mgr.set_incremental(true);
  for (const Point& p : background) mgr.report_node_fault(p);
  mgr.reconfigure();
  const auto checkpoint = mgr.checkpoint();
  mgr.restore(checkpoint);
  for (const Point& p : storm) mgr.report_node_fault(p);
  const auto after = mgr.reconfigure();
  EXPECT_TRUE(after.incremental);
  manager::MachineManager fresh(shape);
  fresh.set_incremental(false);
  for (const Point& p : background) fresh.report_node_fault(p);
  for (const Point& p : storm) fresh.report_node_fault(p);
  fresh.reconfigure();
  EXPECT_EQ(mgr.lambs(), fresh.lambs());
}

TEST(Incremental, ToggleIsBitIdenticalAndDropsContext) {
  const MeshShape shape = MeshShape::cube(2, 12);
  manager::MachineManager mgr(shape);
  mgr.set_incremental(true);
  EXPECT_TRUE(mgr.incremental_enabled());
  mgr.reconfigure();
  mgr.report_node_fault(Point{2, 9});
  mgr.reconfigure();
  mgr.set_incremental(false);
  EXPECT_FALSE(mgr.incremental_enabled());
  mgr.report_node_fault(Point{10, 1});
  const auto off = mgr.reconfigure();
  EXPECT_FALSE(off.incremental);
  // Re-enabling after the context was dropped: first epoch falls back,
  // later ones go incremental again.
  mgr.set_incremental(true);
  mgr.report_node_fault(Point{6, 6});
  const auto first = mgr.reconfigure();
  EXPECT_FALSE(first.incremental);
  manager::MachineManager fresh(shape);
  fresh.set_incremental(false);
  for (const Point p : {Point{2, 9}, Point{10, 1}, Point{6, 6}}) {
    fresh.report_node_fault(p);
  }
  fresh.reconfigure();
  EXPECT_EQ(mgr.lambs(), fresh.lambs());
}

}  // namespace
}  // namespace lamb
