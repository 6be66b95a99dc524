// Tests for the two R^(k) backends (paper footnote 7): the Section 6.2
// matrix chain and the per-representative flood ("spanning tree")
// computation must agree bit for bit, through every solver entry point,
// and the set-valued flood primitive must equal the union of per-node
// floods. Also covers the RouteCache fast path and the Samples quantile
// helper added for latency reporting.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

struct BackendParam {
  std::vector<Coord> widths;
  int faults;
  int rounds;
  std::uint64_t seed;
};

class BackendSweep : public ::testing::TestWithParam<BackendParam> {};

TEST_P(BackendSweep, MatrixAndFloodAgreeBitForBit) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);
  const ReachComputation matrix =
      compute_reachability(shape, faults, orders, ReachBackend::kMatrix);
  const ReachComputation flood =
      compute_reachability(shape, faults, orders, ReachBackend::kFlood);
  EXPECT_EQ(matrix.rk, flood.rk);
}

TEST_P(BackendSweep, Lamb1IdenticalUnderBothBackends) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0x77);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  LambOptions matrix_opts;
  matrix_opts.rounds = p.rounds;
  matrix_opts.backend = ReachBackend::kMatrix;
  LambOptions flood_opts = matrix_opts;
  flood_opts.backend = ReachBackend::kFlood;
  EXPECT_EQ(lamb1(shape, faults, matrix_opts).lambs,
            lamb1(shape, faults, flood_opts).lambs);
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
                      BackendParam{{2, 2, 2, 2, 2}, 6, 2, 11}));

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

// RouteBuilder scans the intersection of freshly computed floods node by
// node; RouteCache's pruned scan must make the same choice with the same
// rng draws, so routes and post-call generator states match exactly --
// from a cold cache and from a warm one.
TEST(RouteCache, MatchesRouteBuilderExactly) {
  const ExactCase cases[] = {
      {MeshShape::cube(2, 10), 8, 4, 400},
      {MeshShape::cube(2, 32), 51, 10, 400},
      {MeshShape::cube(3, 16), 164, 20, 300},
      {MeshShape::torus({8, 8}), 5, 3, 400},
      {MeshShape::torus({7, 6, 5}), 10, 5, 400},
  };
  std::int64_t unreachable = 0;
  std::int64_t drew = 0;
  Rng frng(21);
  for (const ExactCase& c : cases) {
    SCOPED_TRACE(c.shape.to_string());
    const FaultSet faults =
        random_faults(c.shape, c.node_faults, c.link_faults, frng);
    const auto orders = ascending_rounds(c.shape.dim(), 2);
    const wormhole::RouteBuilder builder(c.shape, faults, orders);
    wormhole::RouteCache warm(c.shape, faults, orders);
    wormhole::RouteCache cold(c.shape, faults, orders);
    Rng pick(22);
    for (int t = 0; t < c.pairs; ++t) {
      const NodeId a = (NodeId)pick.below((std::uint64_t)c.shape.size());
      const NodeId b = (NodeId)pick.below((std::uint64_t)c.shape.size());
      const std::uint64_t seed = pick();
      Rng r_builder(seed), r_warm(seed), r_cold(seed);
      const auto want = builder.build(a, b, r_builder);
      cold.reconfigure();
      expect_same_route(want, cold.build(a, b, r_cold));
      expect_same_route(want, warm.build(a, b, r_warm));
      EXPECT_EQ(r_builder.state(), r_cold.state());
      EXPECT_EQ(r_builder.state(), r_warm.state());
      if (!want) ++unreachable;
      if (r_builder.state() != Rng(seed).state()) ++drew;
    }
    EXPECT_GT(warm.hits(), 0);
  }
  // Both outcomes and the tie-break draws are exercised.
  EXPECT_GT(unreachable, 0);
  EXPECT_GT(drew, 0);
}

// Load-aware pick, by brute force: the first node of F∩B in ascending id
// order with the minimum length, then the least load.
TEST(RouteCache, LoadAwareMatchesBruteForce) {
  const MeshShape shape = MeshShape::cube(3, 10);
  Rng frng(26);
  const FaultSet faults = random_faults(shape, 40, 10, frng);
  const auto orders = ascending_rounds(3, 2);
  const FloodOracle flood(shape, faults);
  wormhole::RouteCache cache(shape, faults, orders);
  wormhole::NodeLoad load(shape);
  Rng pick(27);
  for (std::int32_t& c : load.counts) c = (std::int32_t)pick.below(4);
  std::vector<std::int32_t> want_counts = load.counts;
  int routed = 0;
  for (int t = 0; t < 300; ++t) {
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
    const std::vector<Point> legs[] = {route_nodes(shape, a_p, mid, orders[0]),
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

TEST(RouteCache, ReconfigureDropsState) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  Rng rng(24);
  cache.build(0, 10, rng);
  const std::int64_t before = cache.misses();
  cache.reconfigure();
  cache.build(0, 10, rng);
  EXPECT_EQ(cache.misses(), before + 2);
}

TEST(RouteCache, NonTwoRoundDelegates) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 3));
  Rng rng(25);
  const auto route = cache.build(0, shape.size() - 1, rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 14);
  EXPECT_EQ(cache.misses(), 0);  // fast path not used
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
