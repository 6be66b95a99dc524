// Tests for R^(k) against footnote 7's "spanning tree" reference: the
// Section 6.2 chain (compute_reachability) must equal one k-round flood
// per SES representative bit for bit (tests/flood_reference.hpp), and
// lamb1's cover over either matrix must be the same lamb set, which the
// verifier accepts. The set-valued flood primitive must equal the union
// of per-node floods. Also covers the route picker (RouteCache) against a
// brute-force reference and the Samples quantile helper added for latency
// reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/lamb.hpp"
#include "core/lamb_internal.hpp"
#include "core/verifier.hpp"
#include "manager/machine_manager.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/reach_oracle.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/route_cache.hpp"
#include "flood_reference.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

struct BackendParam {
  std::vector<Coord> widths;
  int faults;
  int rounds;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const BackendParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, false, p.seed);
}

class BackendSweep : public ::testing::TestWithParam<BackendParam> {};

TEST_P(BackendSweep, MatrixAndFloodAgreeBitForBit) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);
  const ReachComputation reach = compute_reachability(shape, faults, orders);
  EXPECT_EQ(reach.rk, flood_reference(shape, faults, orders, reach));
}

TEST_P(BackendSweep, Lamb1IdenticalUnderBothBackends) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0x77);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);
  LambOptions options;
  options.rounds = p.rounds;
  const LambResult got = lamb1(shape, faults, options);
  EXPECT_TRUE(is_lamb_set(shape, faults, orders, got.lambs));
  // The same cover over the flood reference's R^(k).
  ReachComputation reach = compute_reachability(shape, faults, orders);
  reach.rk = flood_reference(shape, faults, orders, reach);
  EXPECT_EQ(got.lambs, internal::cover_phase(shape, reach, options, {},
                                             internal::Deadline(0.0))
                           .lambs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BackendSweep,
    ::testing::Values(BackendParam{{10, 10}, 8, 2, 1},
                      BackendParam{{10, 10}, 25, 2, 2},
                      BackendParam{{12, 12}, 40, 2, 3},
                      BackendParam{{6, 6, 6}, 12, 2, 4},
                      BackendParam{{6, 6, 6}, 40, 2, 5},
                      BackendParam{{8, 8}, 10, 1, 6},
                      BackendParam{{8, 8}, 10, 3, 7},
                      BackendParam{{5, 7, 4}, 15, 2, 8},
                      BackendParam{{12, 12}, 70, 2, 9},
                      BackendParam{{10, 10}, 50, 4, 10},
                      BackendParam{{2, 2, 2, 2, 2}, 6, 2, 11}),
    ::testing::PrintToStringParamName());

TEST(FloodSet, SetFloodEqualsUnionOfNodeFloods) {
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng rng(9);
  const FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
  const FloodOracle flood(shape, faults);
  const DimOrder order = DimOrder::ascending(2);
  for (int trial = 0; trial < 10; ++trial) {
    Bits sources(shape.size());
    for (int i = 0; i < 7; ++i) {
      sources.set((NodeId)rng.below((std::uint64_t)shape.size()));
    }
    Bits want(shape.size());
    sources.for_each([&](NodeId v) {
      want |= flood.reach1_from(shape.point(v), order);
    });
    EXPECT_EQ(flood.reach1_from_set(sources, order), want);
  }
}

TEST(FloodSet, FaultySourcesContributeNothing) {
  const MeshShape shape = MeshShape::cube(2, 6);
  FaultSet faults(shape);
  faults.add_node(Point{2, 2});
  const FloodOracle flood(shape, faults);
  Bits sources(shape.size());
  sources.set(shape.index(Point{2, 2}));
  EXPECT_FALSE(
      flood.reach1_from_set(sources, DimOrder::ascending(2)).any());
}

// --- RouteCache -------------------------------------------------------------

// `nodes` random node faults plus up to `links` random bidirectional
// link faults.
FaultSet random_faults(const MeshShape& shape, std::int64_t nodes,
                       int links, Rng& rng) {
  FaultSet faults = FaultSet::random_nodes(shape, nodes, rng);
  for (int i = 0; i < links; ++i) {
    const Point from =
        shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    const int dim = (int)rng.below((std::uint64_t)shape.dim());
    Point to;
    if (shape.neighbor(from, dim, Dir::Pos, &to)) {
      faults.add_link(from, dim, Dir::Pos);
    }
  }
  return faults;
}

void expect_same_route(const std::optional<wormhole::Route>& want,
                       const std::optional<wormhole::Route>& got) {
  ASSERT_EQ(want.has_value(), got.has_value());
  if (!want) return;
  EXPECT_EQ(want->src, got->src);
  EXPECT_EQ(want->dst, got->dst);
  EXPECT_EQ(want->intermediates, got->intermediates);
  ASSERT_EQ(want->hops.size(), got->hops.size());
  for (std::size_t h = 0; h < want->hops.size(); ++h) {
    EXPECT_EQ(want->hops[h].dim, got->hops[h].dim);
    EXPECT_EQ(want->hops[h].dir, got->hops[h].dir);
    EXPECT_EQ(want->hops[h].vc, got->hops[h].vc);
  }
}

struct ExactCase {
  MeshShape shape;
  std::int64_t node_faults;
  int link_faults;
  int pairs;
};

// Reference pick by brute force, independent of the picker: every
// candidate intermediate is tested with ReachOracle in ascending id order
// and scored by total length (paper Sec. 2.1's shortest-route heuristic).
// k = 2 keeps the minimum and breaks ties by reservoir sampling. k = 3
// keeps, per u2, the first u1 at minimum cost, then draws over u2 the
// same way. k = 1 has no intermediate and draws nothing.
std::optional<wormhole::Route> brute_force_route(const MeshShape& shape,
                                                 const ReachOracle& oracle,
                                                 const MultiRoundOrder& orders,
                                                 NodeId src, NodeId dst,
                                                 Rng& rng) {
  const int k = (int)orders.size();
  const Point s = shape.point(src);
  const Point d = shape.point(dst);
  const auto dist = [&](NodeId a, NodeId b) {
    return shape.l1_distance(shape.point(a), shape.point(b));
  };
  std::vector<NodeId> chain;
  if (k == 1) {
    if (!oracle.reach1(s, d, orders[0])) return std::nullopt;
  } else {
    std::vector<NodeId> first;  // round-0 targets of src, ascending
    for (NodeId u = 0; u < shape.size(); ++u) {
      if (oracle.reach1(s, shape.point(u), orders[0])) first.push_back(u);
    }
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::int64_t ties = 0;
    for (NodeId last = 0; last < shape.size(); ++last) {
      const Point last_p = shape.point(last);
      if (!oracle.reach1(last_p, d, orders[(std::size_t)k - 1])) continue;
      std::int64_t cost = std::numeric_limits<std::int64_t>::max();
      NodeId pred = -1;
      if (k == 2) {
        if (std::binary_search(first.begin(), first.end(), last)) {
          cost = dist(src, last);
        }
      } else {
        for (const NodeId u : first) {
          const std::int64_t c = dist(src, u) + dist(u, last);
          if (c < cost && oracle.reach1(shape.point(u), last_p, orders[1])) {
            cost = c;
            pred = u;
          }
        }
      }
      if (cost == std::numeric_limits<std::int64_t>::max()) continue;
      const std::int64_t total = cost + dist(last, dst);
      if (total > best) continue;
      if (total < best) {
        best = total;
        ties = 0;
      }
      // A new minimum is taken without a draw; the j-th tie with 1/j.
      if (++ties == 1 || rng.below((std::uint64_t)ties) == 0) {
        chain = k == 3 ? std::vector<NodeId>{pred, last}
                       : std::vector<NodeId>{last};
      }
    }
    if (chain.empty()) return std::nullopt;
  }
  wormhole::Route route;
  route.src = src;
  route.dst = dst;
  route.intermediates = chain;
  NodeId at = src;
  chain.push_back(dst);
  for (int r = 0; r < k; ++r) {
    const NodeId to = chain[(std::size_t)r];
    for (const RouteSegment& seg : dim_ordered_route(
             shape, shape.point(at), shape.point(to), orders[(std::size_t)r])) {
      for (Coord i = 0; i < seg.steps; ++i) {
        route.hops.push_back(wormhole::Hop{seg.dim, seg.dir, r});
      }
    }
    at = to;
  }
  return route;
}

// The picker must make the brute-force choice with the same rng draws,
// so routes and post-call generator states match exactly -- from a cold
// cache and from a warm one, for k = 1, 2 and 3. A k = 3 pick floods from
// every round-0 target and scores every node each flood reaches (50-120 ms
// a call on M_3(16), measured on a 4-vCPU x86-64 host), and the
// brute-force k = 3 reference costs more still, so the large shapes sample
// fewer k = 3 pairs, and M_3(16) one.
TEST(RouteCache, MatchesBruteForceExactly) {
  struct Case {
    ExactCase shape;
    int three_round_pairs;
  };
  const Case cases[] = {
      {{MeshShape::cube(2, 10), 8, 4, 400}, 100},
      {{MeshShape::cube(2, 32), 51, 10, 400}, 6},
      {{MeshShape::cube(3, 16), 164, 20, 300}, 1},
      {{MeshShape::torus({8, 8}), 5, 3, 400}, 80},
      {{MeshShape::torus({7, 6, 5}), 10, 5, 400}, 12},
      // Rows of 70 nodes span two words and start mid-word, so the
      // scan's window masks cut inside and across words.
      {{MeshShape::mesh({70, 5}), 14, 6, 400}, 20},
      // Odd widths on a torus: cost windows whose arcs wrap.
      {{MeshShape::torus({9, 7, 5}), 12, 6, 400}, 12},
  };
  for (const int k : {1, 2, 3}) {
    std::int64_t unreachable = 0;
    std::int64_t drew = 0;
    Rng frng(21);
    for (const Case& cs : cases) {
      const ExactCase& c = cs.shape;
      SCOPED_TRACE(c.shape.to_string() + " k=" + std::to_string(k));
      const FaultSet faults =
          random_faults(c.shape, c.node_faults, c.link_faults, frng);
      const auto orders = ascending_rounds(c.shape.dim(), k);
      const ReachOracle oracle(c.shape, faults);
      wormhole::RouteCache warm(c.shape, faults, orders);
      Rng pick(22);
      const int pairs = k == 3 ? cs.three_round_pairs : c.pairs;
      for (int t = 0; t < pairs; ++t) {
        const NodeId a = (NodeId)pick.below((std::uint64_t)c.shape.size());
        const NodeId b = (NodeId)pick.below((std::uint64_t)c.shape.size());
        const std::uint64_t seed = pick();
        Rng r_want(seed), r_warm(seed), r_cold(seed);
        const auto want =
            brute_force_route(c.shape, oracle, orders, a, b, r_want);
        wormhole::RouteCache cold(warm.snapshot(), orders);
        expect_same_route(want, cold.build(a, b, r_cold));
        expect_same_route(want, warm.build(a, b, r_warm));
        // Asked again, the warm cache answers from its memoised floods.
        Rng r_again(seed);
        expect_same_route(want, warm.build(a, b, r_again));
        EXPECT_EQ(r_want.state(), r_cold.state());
        EXPECT_EQ(r_want.state(), r_warm.state());
        EXPECT_EQ(r_want.state(), r_again.state());
        if (!want) ++unreachable;
        if (r_want.state() != Rng(seed).state()) ++drew;
      }
      // Every repeat hit the memo at least once.
      EXPECT_GE(warm.hits(), pairs);
    }
    // Both outcomes and (k > 1) the tie-break draws are exercised.
    EXPECT_GT(unreachable, 0) << "k=" << k;
    if (k > 1) {
      EXPECT_GT(drew, 0) << "k=" << k;
    } else {
      EXPECT_EQ(drew, 0);
    }
  }
}

// Load-aware pick, by brute force: the first node of F∩B in ascending id
// order with the minimum length, then the least load -- on a mesh and on
// an odd-width torus, whose cost windows wrap.
TEST(RouteCache, LoadAwareMatchesBruteForce) {
  const ExactCase cases[] = {{MeshShape::cube(3, 10), 40, 10, 300},
                             {MeshShape::torus({9, 7, 5}), 12, 6, 300}};
  for (const ExactCase& c : cases) {
    const MeshShape& shape = c.shape;
    SCOPED_TRACE(shape.to_string());
    Rng frng(26);
    const FaultSet faults =
        random_faults(shape, c.node_faults, c.link_faults, frng);
    const auto orders = ascending_rounds(shape.dim(), 2);
    const FloodOracle flood(shape, faults);
    wormhole::RouteCache cache(shape, faults, orders);
    wormhole::NodeLoad load(shape);
    Rng pick(27);
    for (std::int32_t& n : load.counts) n = (std::int32_t)pick.below(4);
    std::vector<std::int32_t> want_counts = load.counts;
    int routed = 0;
    for (int t = 0; t < c.pairs; ++t) {
      const NodeId a = (NodeId)pick.below((std::uint64_t)shape.size());
      const NodeId b = (NodeId)pick.below((std::uint64_t)shape.size());
      const Point a_p = shape.point(a);
      const Point b_p = shape.point(b);
      Bits both = flood.reach1_from(a_p, orders[0]);
      both &= flood.reach1_to(b_p, orders[1]);
      std::int64_t best_len = std::numeric_limits<std::int64_t>::max();
      std::int32_t best_load = std::numeric_limits<std::int32_t>::max();
      NodeId want = -1;
      both.for_each([&](NodeId u) {
        const Point u_p = shape.point(u);
        const std::int64_t len =
            shape.l1_distance(a_p, u_p) + shape.l1_distance(u_p, b_p);
        const std::int32_t u_load = want_counts[(std::size_t)u];
        if (len < best_len || (len == best_len && u_load < best_load)) {
          best_len = len;
          best_load = u_load;
          want = u;
        }
      });

      Rng rng(t);
      const auto route = cache.build(a, b, rng, &load);
      EXPECT_EQ(rng.state(), Rng(t).state());  // no tie-break draws
      ASSERT_EQ(want >= 0, route.has_value());
      if (want < 0) continue;
      ++routed;
      ASSERT_EQ(route->intermediates, std::vector<NodeId>{want});
      // Charge the reference: every node of both dimension-ordered legs.
      const Point mid = shape.point(want);
      ++want_counts[(std::size_t)a];
      const std::vector<Point> legs[] = {
          route_nodes(shape, a_p, mid, orders[0]),
          route_nodes(shape, mid, b_p, orders[1])};
      for (const std::vector<Point>& leg : legs) {
        for (std::size_t i = 1; i < leg.size(); ++i) {
          ++want_counts[(std::size_t)shape.index(leg[i])];
        }
      }
      ASSERT_EQ(want_counts, load.counts);
    }
    EXPECT_GT(routed, 100);
  }
}

TEST(RouteCache, HitsAccumulateOnRepeatedEndpoints) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    cache.build(0, shape.size() - 1, rng);
  }
  EXPECT_EQ(cache.misses(), 2);  // one forward + one backward flood
  EXPECT_EQ(cache.hits(), 38);
}

// Reconfiguring binds a new cache: one over the same snapshot starts
// cold, while the old cache keeps its floods.
TEST(RouteCache, ReconfigureDropsState) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  const auto orders = ascending_rounds(2, 2);
  wormhole::RouteCache cache(shape, faults, orders);
  Rng rng(24);
  cache.build(0, 10, rng);
  const std::int64_t before = cache.misses();
  wormhole::RouteCache next(cache.snapshot(), orders);
  next.build(0, 10, rng);
  EXPECT_EQ(next.misses(), before);
  EXPECT_EQ(next.hits(), 0);
  cache.build(0, 10, rng);
  EXPECT_EQ(cache.misses(), before);
}

// Nodes a route visits strictly between its endpoints.
std::vector<NodeId> interior_nodes(const MeshShape& shape,
                                   const wormhole::Route& route) {
  std::vector<NodeId> out;
  Point at = shape.point(route.src);
  for (std::size_t h = 0; h + 1 < route.hops.size(); ++h) {
    Point next;
    shape.neighbor(at, route.hops[h].dim, route.hops[h].dir, &next);
    at = next;
    out.push_back(shape.index(at));
  }
  return out;
}

bool visits(const MeshShape& shape, const wormhole::Route& route, NodeId id) {
  const std::vector<NodeId> inside = interior_nodes(shape, route);
  return std::find(inside.begin(), inside.end(), id) != inside.end();
}

// The middle interior node of the route a cache over `faults` would vend
// for src -> dst under rng seed `seed` (the stale answer a cache that kept
// its old flood masks would give after that node dies).
NodeId node_on_route(const MeshShape& shape, const FaultSet& faults,
                     const MultiRoundOrder& orders, NodeId src, NodeId dst,
                     std::uint64_t seed) {
  wormhole::RouteCache before(shape, faults, orders);
  Rng rng(seed);
  const auto route = before.build(src, dst, rng);
  EXPECT_TRUE(route.has_value());
  if (!route) return -1;
  const std::vector<NodeId> inside = interior_nodes(shape, *route);
  EXPECT_FALSE(inside.empty());
  return inside.empty() ? -1 : inside[inside.size() / 2];
}

// A miss on a fresh endpoint must match a brand-new cache over the
// current faults, rng draws included.
void expect_fresh_miss(wormhole::RouteCache& cache, const MeshShape& shape,
                       const FaultSet& faults, const MultiRoundOrder& orders,
                       NodeId src, NodeId dst, std::uint64_t seed) {
  Rng r_got(seed), r_want(seed);
  const auto got = cache.build(src, dst, r_got);
  wormhole::RouteCache fresh(shape, faults, orders);
  expect_same_route(fresh.build(src, dst, r_want), got);
  EXPECT_EQ(r_want.state(), r_got.state());
}

// A cache seals the faults it was built over: growing the source FaultSet
// (as report_*_fault grows the manager's working set) does not reach it,
// and a cache over the next snapshot floods against the grown set, for a
// node and for a link, whether or not it adopted the older floods.
TEST(RouteCache, MissAfterFaultSetGrowsSeesTheNewFaults) {
  const MeshShape shape = MeshShape::cube(2, 12);
  Rng frng(30);
  FaultSet faults = random_faults(shape, 4, 2, frng);
  const auto orders = ascending_rounds(2, 2);
  const NodeId n = shape.size();
  ASSERT_TRUE(faults.node_good(0) && faults.node_good(n - 1));
  wormhole::RouteCache cache(shape, faults, orders);
  Rng rng(31);
  ASSERT_TRUE(cache.build(1, n - 2, rng).has_value());  // builds the masks

  const NodeId x = node_on_route(shape, faults, orders, 0, n - 1, 32);
  ASSERT_GE(x, 0);
  const FaultSet sealed = faults;
  faults.add_node(x);
  EXPECT_FALSE(cache.snapshot()->faults.node_faulty(x));
  expect_fresh_miss(cache, shape, sealed, orders, 0, n - 1, 32);
  Rng r_stale(32);
  const auto stale = cache.build(0, n - 1, r_stale);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(visits(shape, *stale, x));

  wormhole::RouteCache next(shape, faults, orders);
  ASSERT_TRUE(next.adopt(cache).has_value());
  expect_fresh_miss(next, shape, faults, orders, 0, n - 1, 32);
  Rng r_check(32);
  const auto avoided = next.build(0, n - 1, r_check);
  ASSERT_TRUE(avoided.has_value());
  EXPECT_FALSE(visits(shape, *avoided, x));

  // A link fault on a route the next cache would vend.
  wormhole::RouteCache probe(next.snapshot(), orders);
  Rng r_probe(33);
  const auto route = probe.build(n - 1, 0, r_probe);
  ASSERT_TRUE(route.has_value() && route->hops.size() > 2);
  Point at = shape.point(n - 1);
  shape.neighbor(at, route->hops[0].dim, route->hops[0].dir, &at);
  faults.add_link(at, route->hops[1].dim, route->hops[1].dir);
  ASSERT_TRUE(next.build(n - 1, 0, r_probe).has_value());  // warm both ends
  wormhole::RouteCache linked(shape, faults, orders);
  ASSERT_TRUE(linked.adopt(next).has_value());
  expect_fresh_miss(linked, shape, faults, orders, n - 1, 0, 33);
}

// A new epoch's cache floods against its own snapshot whether it starts
// cold or adopts: a swap that keeps the fault counts (one node fault
// traded for another) is no superset, so adopt() takes nothing, and on a
// grown set the first miss still matches a fresh cache.
TEST(RouteCache, ReconfigureAndInvalidateRebuildTheMasks) {
  const MeshShape shape = MeshShape::cube(2, 12);
  const auto orders = ascending_rounds(2, 2);
  const NodeId n = shape.size();
  FaultSet faults(shape);
  faults.add_node(NodeId{5});
  wormhole::RouteCache cache(shape, faults, orders);
  Rng rng(34);
  ASSERT_TRUE(cache.build(1, n - 2, rng).has_value());
  ASSERT_TRUE(cache.build(0, n - 1, rng).has_value());

  const NodeId x = node_on_route(shape, faults, orders, 0, n - 1, 35);
  ASSERT_GE(x, 0);
  FaultSet swapped(shape);
  swapped.add_node(x);
  wormhole::RouteCache next(shape, swapped, orders);
  EXPECT_FALSE(next.adopt(cache).has_value());
  EXPECT_EQ(next.cached_entries(), 0);
  expect_fresh_miss(next, shape, swapped, orders, 0, n - 1, 35);

  // And the grow-then-adopt order the manager uses.
  const NodeId y = node_on_route(shape, swapped, orders, n - 1, 0, 36);
  ASSERT_GE(y, 0);
  swapped.add_node(y);
  wormhole::RouteCache grown(shape, swapped, orders);
  ASSERT_TRUE(grown.adopt(next).has_value());
  expect_fresh_miss(grown, shape, swapped, orders, n - 1, 0, 36);
}

// Through the manager: a fault reported inside a fresh endpoint's route
// stops every vend until reconfigure(); the first miss after it equals a
// brand-new cache over the updated faults, load and rng included.
TEST(RouteCache, ManagerMissAfterReportMatchesAFreshCache) {
  const MeshShape shape = MeshShape::cube(2, 12);
  const NodeId n = shape.size();
  manager::MachineManager mgr(shape);
  for (const NodeId id : {NodeId{17}, NodeId{40}, NodeId{77}}) {
    mgr.report_node_fault(id);
  }
  mgr.reconfigure();
  Rng rng(37);
  ASSERT_TRUE(mgr.route(1, n - 2, rng).has_value());

  const NodeId x =
      node_on_route(shape, mgr.faults(), mgr.orders(), 0, n - 1, 38);
  ASSERT_GE(x, 0);
  mgr.report_node_fault(x);
  Rng r_stale(38);
  EXPECT_THROW(mgr.route(0, n - 1, r_stale), std::logic_error);
  mgr.reconfigure();
  ASSERT_TRUE(mgr.is_survivor(0) && mgr.is_survivor(n - 1));

  wormhole::NodeLoad load = mgr.route_load();
  wormhole::RouteCache fresh(shape, mgr.faults(), mgr.orders());
  Rng r_got(38), r_want(38);
  const auto want = fresh.build(0, n - 1, r_want, &load);
  const auto got = mgr.route(0, n - 1, r_got);
  expect_same_route(want, got);
  EXPECT_EQ(r_want.state(), r_got.state());
  EXPECT_EQ(load.counts, mgr.route_load().counts);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(visits(shape, *got, x));
}

// k = 3 takes its endpoint floods from the memo too; only the middle
// round floods directly.
TEST(RouteCache, NonTwoRoundUsesTheMemo) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 3));
  Rng rng(25);
  const auto route = cache.build(0, shape.size() - 1, rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 14);
  EXPECT_EQ(cache.misses(), 2);  // one forward + one backward flood
}

// An id outside [0, N) is not a node: no route, no load charged (a load
// counter indexed by it would be written out of bounds), and the same
// through the manager, which passes ids straight through.
TEST(RouteCache, OutOfRangeIdsReturnNullopt) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  const NodeId n = shape.size();
  for (const int k : {1, 2, 3}) {
    SCOPED_TRACE(k);
    wormhole::RouteCache cache(shape, faults, ascending_rounds(2, k));
    wormhole::NodeLoad load(shape);
    Rng rng(28);
    for (const auto& [a, b] : {std::pair<NodeId, NodeId>{n, 5}, {5, n},
                               {-1, 5}, {5, -1}, {n, n}}) {
      EXPECT_FALSE(cache.build(a, b, rng).has_value());
      EXPECT_FALSE(cache.build(a, b, rng, &load).has_value());
    }
    EXPECT_EQ(load.total(), 0);
    EXPECT_EQ(rng.state(), Rng(28).state());
    EXPECT_EQ(cache.misses(), 0);
    EXPECT_TRUE(cache.build(0, n - 1, rng, &load).has_value());
  }
  manager::MachineManager mgr(shape);
  mgr.reconfigure();
  Rng rng(29);
  for (const NodeId bad : {NodeId{-1}, n}) {
    EXPECT_FALSE(mgr.route(bad, 5, rng).has_value());
    EXPECT_FALSE(mgr.route(5, bad, rng).has_value());
  }
  EXPECT_TRUE(mgr.route(0, n - 1, rng).has_value());
}

// --- Samples ----------------------------------------------------------------

TEST(Samples, QuantilesNearestRank) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.quantile(0.5), 50);
  EXPECT_EQ(s.quantile(0.95), 95);
  EXPECT_EQ(s.quantile(0.99), 99);
  EXPECT_EQ(s.quantile(0.0), 1);
  EXPECT_EQ(s.quantile(1.0), 100);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyIsZero) {
  const Samples s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, UnsortedInsertionOrderIrrelevant) {
  Samples a, b;
  for (double v : {5.0, 1.0, 3.0}) a.add(v);
  for (double v : {3.0, 5.0, 1.0}) b.add(v);
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.median(), 3.0);
}

}  // namespace
}  // namespace lamb
