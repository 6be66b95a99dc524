// Tests for dimension orders, explicit routes, and the three reachability
// oracles. The prefix-sum ReachOracle and the FloodOracle are checked
// against the walk-the-route reference (route_clear) over randomized
// parameterized sweeps covering node faults, bidirectional and directed
// link faults, meshes and tori.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mesh/fault_set.hpp"
#include "reach/dim_order.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/reach_oracle.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

TEST(DimOrder, AscendingAndDescending) {
  const DimOrder a = DimOrder::ascending(3);
  EXPECT_EQ(a.at(0), 0);
  EXPECT_EQ(a.at(1), 1);
  EXPECT_EQ(a.at(2), 2);
  EXPECT_EQ(a.to_string(), "XYZ");
  const DimOrder d = DimOrder::descending(3);
  EXPECT_EQ(d.to_string(), "ZYX");
  EXPECT_EQ(a.reversed(), d);
}

TEST(DimOrder, RejectsNonPermutation) {
  EXPECT_THROW(DimOrder({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(DimOrder({0, 2}), std::invalid_argument);
}

TEST(DimOrder, PositionOf) {
  const DimOrder o({2, 0, 1});
  EXPECT_EQ(o.position_of(2), 0);
  EXPECT_EQ(o.position_of(0), 1);
  EXPECT_EQ(o.position_of(1), 2);
}

TEST(Route, XyRouteVisitsExpectedNodes) {
  const MeshShape m = MeshShape::mesh({6, 6});
  const auto nodes =
      route_nodes(m, Point{1, 1}, Point{4, 3}, DimOrder::ascending(2));
  const std::vector<Point> want{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {4, 2}, {4, 3}};
  EXPECT_EQ(nodes, want);
}

TEST(Route, SelfRouteIsSingleNode) {
  const MeshShape m = MeshShape::mesh({6, 6});
  const auto nodes =
      route_nodes(m, Point{2, 2}, Point{2, 2}, DimOrder::ascending(2));
  const std::vector<Point> want{Point{2, 2}};
  EXPECT_EQ(nodes, want);
}

TEST(Route, TorusTakesShorterArcTiesPositive) {
  const MeshShape t = MeshShape::torus({8, 8});
  // 7 -> 1: forward distance 2, backward 6 -> wraps positive.
  auto segs = dim_ordered_route(t, Point{7, 0}, Point{1, 0},
                                DimOrder::ascending(2));
  EXPECT_EQ(segs[0].dir, Dir::Pos);
  EXPECT_EQ(segs[0].steps, 2);
  // distance exactly half (4): tie goes positive.
  segs = dim_ordered_route(t, Point{0, 0}, Point{4, 0}, DimOrder::ascending(2));
  EXPECT_EQ(segs[0].dir, Dir::Pos);
  EXPECT_EQ(segs[0].steps, 4);
}

TEST(Route, TurnAndHopCounting) {
  const MeshShape m = MeshShape::mesh({6, 6, 6});
  const auto segs = dim_ordered_route(m, Point{0, 0, 0}, Point{3, 0, 2},
                                      DimOrder::ascending(3));
  EXPECT_EQ(count_hops(segs), 5);
  EXPECT_EQ(count_turns(segs), 1);  // Y segment is empty: X then Z
}

// The asymmetry example of paper Section 2.1: (3,2) is not XY-reachable
// from (0,0) if any of (1,0), (2,0), (3,0), (3,1) is faulty, but (0,0)
// may still be XY-reachable from (3,2).
TEST(Route, PaperSection21AsymmetryExample) {
  const MeshShape m = MeshShape::mesh({12, 12});
  const DimOrder xy = DimOrder::ascending(2);
  for (Point fp : {Point{1, 0}, Point{2, 0}, Point{3, 0}, Point{3, 1}}) {
    FaultSet f(m);
    f.add_node(fp);
    EXPECT_FALSE(route_clear(m, f, Point{0, 0}, Point{3, 2}, xy));
  }
  FaultSet all(m);
  for (Point fp : {Point{1, 0}, Point{2, 0}, Point{3, 0}, Point{3, 1}}) {
    all.add_node(fp);
  }
  EXPECT_TRUE(route_clear(m, all, Point{3, 2}, Point{0, 0}, xy));
}

TEST(Route, FaultySourceOrDestinationUnreachable) {
  const MeshShape m = MeshShape::mesh({6, 6});
  FaultSet f(m);
  f.add_node(Point{2, 2});
  const DimOrder xy = DimOrder::ascending(2);
  EXPECT_FALSE(route_clear(m, f, Point{2, 2}, Point{0, 0}, xy));
  EXPECT_FALSE(route_clear(m, f, Point{0, 0}, Point{2, 2}, xy));
  EXPECT_FALSE(route_clear(m, f, Point{2, 2}, Point{2, 2}, xy));
}

TEST(Route, DirectedLinkFaultBlocksOnlyOneWay) {
  const MeshShape m = MeshShape::mesh({6, 6});
  FaultSet f(m);
  f.add_directed_link(Point{2, 0}, 0, Dir::Pos);  // (2,0) -> (3,0) only
  const DimOrder xy = DimOrder::ascending(2);
  EXPECT_FALSE(route_clear(m, f, Point{0, 0}, Point{4, 0}, xy));
  EXPECT_TRUE(route_clear(m, f, Point{4, 0}, Point{0, 0}, xy));
}

struct OracleSweepParam {
  std::vector<Coord> widths;
  bool torus;
  int node_faults;
  int link_faults;
  int directed_link_faults;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const OracleSweepParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, p.torus, p.seed);
}

class OracleSweep : public ::testing::TestWithParam<OracleSweepParam> {};

FaultSet random_faults(const MeshShape& shape, const OracleSweepParam& p,
                       Rng& rng) {
  FaultSet f = FaultSet::random_nodes(shape, p.node_faults, rng);
  int added = 0;
  while (added < p.link_faults + p.directed_link_faults) {
    const NodeId id = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size())));
    const int dim = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(shape.dim())));
    const Dir dir = rng.bernoulli(0.5) ? Dir::Pos : Dir::Neg;
    Point other;
    if (!shape.neighbor(shape.point(id), dim, dir, &other)) continue;
    if (added < p.link_faults) {
      f.add_link(shape.point(id), dim, dir);
    } else {
      f.add_directed_link(shape.point(id), dim, dir);
    }
    ++added;
  }
  return f;
}

TEST_P(OracleSweep, PrefixSumOracleMatchesRouteWalk) {
  const OracleSweepParam p = GetParam();
  const MeshShape shape =
      p.torus ? MeshShape::torus(p.widths) : MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = random_faults(shape, p, rng);
  const ReachOracle oracle(shape, faults);
  const DimOrder order = DimOrder::ascending(shape.dim());
  for (int trial = 0; trial < 400; ++trial) {
    const Point v = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    const Point w = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    EXPECT_EQ(oracle.reach1(v, w, order), route_clear(shape, faults, v, w, order))
        << shape.to_string() << " v=" << shape.index(v) << " w=" << shape.index(w);
  }
}

DimOrder random_order(int d, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(d));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return DimOrder(std::move(perm));
}

// { w : w is (k, F, orders)-reachable from v }, composed round by round
// from pairwise ReachOracle queries.
Bits brute_reach(const ReachOracle& oracle, const Point& v,
                 const MultiRoundOrder& orders) {
  const MeshShape& shape = oracle.shape();
  Bits cur(shape.size());
  for (NodeId w = 0; w < shape.size(); ++w) {
    if (oracle.reach1(v, shape.point(w), orders.front())) cur.set(w);
  }
  for (std::size_t r = 1; r < orders.size(); ++r) {
    Bits next(shape.size());
    cur.for_each([&](NodeId u) {
      const Point up = shape.point(u);
      for (NodeId w = 0; w < shape.size(); ++w) {
        if (!next.test(w) && oracle.reach1(up, shape.point(w), orders[r])) {
          next.set(w);
        }
      }
    });
    cur = std::move(next);
  }
  return cur;
}

TEST_P(OracleSweep, FloodOracleMatchesRouteWalk) {
  const OracleSweepParam p = GetParam();
  const MeshShape shape =
      p.torus ? MeshShape::torus(p.widths) : MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0xabcdef);
  const FaultSet faults = random_faults(shape, p, rng);
  const FloodOracle flood(shape, faults);
  const int d = shape.dim();
  const DimOrder perm = random_order(d, rng);
  const std::vector<DimOrder> orders{DimOrder::ascending(d),
                                     DimOrder::descending(d), perm};

  // Every source and target (every row has N <= 512).
  ASSERT_LE(shape.size(), 512);
  for (const DimOrder& order : orders) {
    std::int64_t mismatches = 0;
    for (NodeId v = 0; v < shape.size(); ++v) {
      const Point vp = shape.point(v);
      const Bits from = flood.reach1_from(vp, order);
      const Bits to = flood.reach1_to(vp, order);
      for (NodeId w = 0; w < shape.size(); ++w) {
        const Point wp = shape.point(w);
        if (from.test(w) != route_clear(shape, faults, vp, wp, order) ||
            to.test(w) != route_clear(shape, faults, wp, vp, order)) {
          ++mismatches;
          ADD_FAILURE() << shape.to_string() << " " << order.to_string()
                        << " v=" << v << " w=" << w;
        }
        if (mismatches > 5) return;
      }
    }
  }

  // A set-valued flood is the union of its members' floods; faulty
  // members contribute nothing.
  for (const DimOrder& order : orders) {
    for (const double density : {0.02, 0.2, 1.0}) {
      Bits set(shape.size());
      Bits want(shape.size());
      for (NodeId v = 0; v < shape.size(); ++v) {
        if (!rng.bernoulli(density)) continue;
        set.set(v);
        want |= flood.reach1_from(shape.point(v), order);
      }
      EXPECT_EQ(flood.reach1_from_set(set, order), want)
          << shape.to_string() << " " << order.to_string()
          << " density=" << density;
    }
  }

  // k = 2 and 3 against a round-by-round composition of 1-round queries.
  const ReachOracle oracle(shape, faults);
  const std::vector<MultiRoundOrder> multi{
      {DimOrder::ascending(d), perm},
      {DimOrder::ascending(d), perm, DimOrder::descending(d)}};
  for (int trial = 0; trial < 3; ++trial) {
    const Point v = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    for (const MultiRoundOrder& rounds : multi) {
      EXPECT_EQ(flood.reach_from(v, rounds), brute_reach(oracle, v, rounds))
          << shape.to_string() << " k=" << rounds.size()
          << " v=" << shape.index(v);
    }
  }
}

TEST_P(OracleSweep, NonAscendingOrderAlsoMatches) {
  const OracleSweepParam p = GetParam();
  const MeshShape shape =
      p.torus ? MeshShape::torus(p.widths) : MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0x1234);
  const FaultSet faults = random_faults(shape, p, rng);
  const ReachOracle oracle(shape, faults);
  const DimOrder order = DimOrder::descending(shape.dim());
  for (int trial = 0; trial < 200; ++trial) {
    const Point v = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    const Point w = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    EXPECT_EQ(oracle.reach1(v, w, order),
              route_clear(shape, faults, v, w, order));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, OracleSweep,
    ::testing::Values(
        OracleSweepParam{{8, 8}, false, 4, 0, 0, 1},
        OracleSweepParam{{8, 8}, false, 0, 5, 2, 2},
        OracleSweepParam{{8, 8}, false, 3, 3, 3, 3},
        OracleSweepParam{{9, 7}, false, 5, 2, 2, 4},
        OracleSweepParam{{6, 6, 6}, false, 8, 0, 0, 5},
        OracleSweepParam{{6, 6, 6}, false, 4, 4, 4, 6},
        OracleSweepParam{{5, 4, 3, 3}, false, 6, 3, 2, 7},
        OracleSweepParam{{8, 8}, true, 4, 0, 0, 8},
        OracleSweepParam{{8, 8}, true, 3, 3, 3, 9},
        OracleSweepParam{{7, 5}, true, 4, 2, 2, 10},
        OracleSweepParam{{5, 5, 5}, true, 6, 3, 3, 11},
        OracleSweepParam{{2, 2, 2, 2, 2}, false, 3, 2, 2, 12},
        OracleSweepParam{{16, 3}, false, 6, 2, 1, 13},
        OracleSweepParam{{3, 16}, false, 6, 2, 1, 14},
        OracleSweepParam{{8, 8}, false, 20, 0, 0, 15},
        OracleSweepParam{{6, 6, 6}, true, 10, 4, 4, 16},
        OracleSweepParam{{4, 9, 5}, true, 8, 3, 3, 17},
        OracleSweepParam{{2, 2, 2, 2, 2, 2, 2}, false, 6, 3, 3, 18},
        // Lines that cross a 64-bit word boundary.
        OracleSweepParam{{65, 2}, false, 6, 3, 3, 19},
        OracleSweepParam{{64, 3}, false, 8, 3, 3, 20},
        OracleSweepParam{{3, 65}, false, 8, 3, 3, 21},
        // Power-of-two widths.
        OracleSweepParam{{16, 16}, false, 12, 4, 4, 22},
        // Tori with even, odd and width-2 dimensions.
        OracleSweepParam{{6, 6}, true, 3, 2, 2, 23},
        OracleSweepParam{{7, 5}, true, 6, 0, 0, 24},
        OracleSweepParam{{2, 5}, true, 1, 1, 1, 25},
        OracleSweepParam{{3, 3, 3, 3}, true, 5, 3, 3, 26}),
    ::testing::PrintToStringParamName());

TEST(FloodOracle, NoFaultsReachesEverything) {
  const MeshShape m = MeshShape::mesh({5, 5});
  const FaultSet f(m);
  const FloodOracle flood(m, f);
  const Bits from = flood.reach1_from(Point{2, 2}, DimOrder::ascending(2));
  EXPECT_EQ(from.count(), m.size());
}

TEST(FloodOracle, FaultySourceReachesNothing) {
  const MeshShape m = MeshShape::mesh({5, 5});
  FaultSet f(m);
  f.add_node(Point{2, 2});
  const FloodOracle flood(m, f);
  EXPECT_FALSE(flood.reach1_from(Point{2, 2}, DimOrder::ascending(2)).any());
  EXPECT_FALSE(flood.reach1_to(Point{2, 2}, DimOrder::ascending(2)).any());
}

TEST(FloodOracle, TwoRoundsReachMoreThanOne) {
  // Around a single fault, 2 rounds of XY reach everything.
  const MeshShape m = MeshShape::mesh({8, 8});
  FaultSet f(m);
  f.add_node(Point{4, 0});
  const FloodOracle flood(m, f);
  const Bits one = flood.reach_from(Point{0, 0}, ascending_rounds(2, 1));
  const Bits two = flood.reach_from(Point{0, 0}, ascending_rounds(2, 2));
  EXPECT_LT(one.count(), two.count());
  EXPECT_EQ(two.count(), m.size() - 1);  // everything but the fault
}

TEST(FloodOracle, KRoundsMonotoneInK) {
  const MeshShape m = MeshShape::mesh({8, 8});
  Rng rng(21);
  const FaultSet f = FaultSet::random_nodes(m, 8, rng);
  const FloodOracle flood(m, f);
  Point src{0, 7};
  if (f.node_faulty(src)) src = Point{1, 7};
  Bits prev = flood.reach_from(src, ascending_rounds(2, 1));
  for (int k = 2; k <= 4; ++k) {
    Bits cur = flood.reach_from(src, ascending_rounds(2, k));
    Bits both = prev;
    both &= cur;
    EXPECT_EQ(both, prev) << "k-round reachability must grow with k";
    prev = std::move(cur);
  }
}

// --- Flood kernel exactness ------------------------------------------------
//
// The flood runs each doubling pass in place over only the words its
// frontier spans, so these cases aim at the edges of that bookkeeping:
// every dimension order, tori (whose levels read a snapshot), node counts
// that are not a multiple of 64, and sources and source sets at word
// boundaries. Each flood is checked against route walks.

// Route-walk reference sets for one order; each forward row is walked at
// most once.
class WalkRows {
 public:
  WalkRows(const MeshShape& shape, const FaultSet& faults, DimOrder order)
      : shape_(&shape),
        faults_(&faults),
        order_(std::move(order)),
        rows_(static_cast<std::size_t>(shape.size())) {}

  // { w : route_clear(v, w) }.
  const Bits& from(NodeId v) {
    std::optional<Bits>& row = rows_[static_cast<std::size_t>(v)];
    if (!row) row = walk(v, /*forward=*/true);
    return *row;
  }
  // { u : route_clear(u, v) }.
  Bits to(NodeId v) const { return walk(v, /*forward=*/false); }
  // The union of from(u) over the members u of `set`.
  Bits from_set(const Bits& set) {
    Bits out(shape_->size());
    set.for_each([&](NodeId u) { out |= from(u); });
    return out;
  }

 private:
  Bits walk(NodeId v, bool forward) const {
    Bits out(shape_->size());
    const Point vp = shape_->point(v);
    for (NodeId w = 0; w < shape_->size(); ++w) {
      const Point wp = shape_->point(w);
      if (forward ? route_clear(*shape_, *faults_, vp, wp, order_)
                  : route_clear(*shape_, *faults_, wp, vp, order_)) {
        out.set(w);
      }
    }
    return out;
  }

  const MeshShape* shape_;
  const FaultSet* faults_;
  DimOrder order_;
  std::vector<std::optional<Bits>> rows_;
};

std::vector<DimOrder> all_orders(int d) {
  std::vector<int> perm(static_cast<std::size_t>(d));
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<DimOrder> out;
  do {
    out.emplace_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

// Sources at the ends and word boundaries of the id range, plus a few
// random ones; every id when the shape is small.
std::vector<NodeId> edge_sources(const MeshShape& shape, Rng& rng) {
  const NodeId n = shape.size();
  std::vector<NodeId> out;
  if (n <= 256) {
    for (NodeId v = 0; v < n; ++v) out.push_back(v);
    return out;
  }
  for (const NodeId v : {NodeId{0}, NodeId{1}, NodeId{63}, NodeId{64},
                         NodeId{65}, NodeId{127}, NodeId{128}, n / 2,
                         (n - 1) / 64 * 64 - 1, (n - 1) / 64 * 64, n - 2,
                         n - 1}) {
    out.push_back(v);
  }
  for (int i = 0; i < 6; ++i) {
    out.push_back(
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n))));
  }
  return out;
}

// Source sets that span several words: two far-apart nodes, a run across
// a word boundary, and random sets from sparse to dense.
std::vector<Bits> edge_source_sets(const MeshShape& shape, Rng& rng) {
  const NodeId n = shape.size();
  std::vector<Bits> out;
  Bits ends(n);
  ends.set(0);
  ends.set(n - 1);
  out.push_back(ends);
  Bits run(n);
  run.set_range(60, std::min<NodeId>(n, 70));
  out.push_back(run);
  for (const double density : {0.01, 0.1, 0.5}) {
    Bits set(n);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(density)) set.set(v);
    }
    out.push_back(set);
  }
  return out;
}

struct KernelCase {
  std::vector<Coord> widths;
  bool torus;
  bool every_order;  // every permutation, else ascending, descending and one
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const KernelCase& p, std::ostream* os) {
  *os << sweep_name(p.widths, p.torus, p.seed);
}

class FloodKernel : public ::testing::TestWithParam<KernelCase> {};

TEST_P(FloodKernel, MatchesRouteWalk) {
  const KernelCase c = GetParam();
  const MeshShape shape =
      c.torus ? MeshShape::torus(c.widths) : MeshShape::mesh(c.widths);
  const int d = shape.dim();
  Rng rng(c.seed);
  // Node, bidirectional-link and directed-link faults.
  const OracleSweepParam faults_of{c.widths, c.torus,
                                   static_cast<int>(shape.size() / 25) + 1, 4,
                                   4, 0};
  const FaultSet faults = random_faults(shape, faults_of, rng);
  const FloodOracle flood(shape, faults);

  std::vector<DimOrder> orders = all_orders(d);
  if (!c.every_order) {
    orders = {DimOrder::ascending(d), DimOrder::descending(d),
              random_order(d, rng)};
  }
  const std::vector<NodeId> sources = edge_sources(shape, rng);
  const std::vector<Bits> sets = edge_source_sets(shape, rng);
  std::map<std::string, WalkRows> walks;
  auto walks_of = [&](const DimOrder& order) -> WalkRows& {
    return walks.try_emplace(order.to_string(), shape, faults, order)
        .first->second;
  };
  for (const DimOrder& order : orders) {
    WalkRows& ref = walks_of(order);
    for (const NodeId v : sources) {
      const Point vp = shape.point(v);
      ASSERT_EQ(flood.reach1_from(vp, order), ref.from(v))
          << shape.to_string() << " " << order.to_string() << " from " << v;
      ASSERT_EQ(flood.reach1_to(vp, order), ref.to(v))
          << shape.to_string() << " " << order.to_string() << " to " << v;
    }
    for (const Bits& set : sets) {
      ASSERT_EQ(flood.reach1_from_set(set, order), ref.from_set(set))
          << shape.to_string() << " " << order.to_string() << " set of "
          << set.count();
    }
    // Two rounds: this order, then the reverse one.
    const MultiRoundOrder rounds{order, order.reversed()};
    for (const NodeId v : {sources.front(), sources.back()}) {
      ASSERT_EQ(flood.reach_from(shape.point(v), rounds),
                walks_of(rounds[1]).from_set(ref.from(v)))
          << shape.to_string() << " " << order.to_string() << " k=2 from " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FloodKernel,
    ::testing::Values(
        // N not a multiple of 64.
        KernelCase{{13, 13}, false, true, 1},
        KernelCase{{13, 13}, true, true, 2},
        KernelCase{{5, 5, 5}, false, true, 3},
        KernelCase{{5, 5, 5}, true, true, 4},
        // One step of a stride above a word, or of exactly one word.
        KernelCase{{70, 3}, false, true, 5},
        KernelCase{{3, 70}, true, true, 6},
        KernelCase{{8, 8, 5}, false, true, 7},
        KernelCase{{4, 16, 3}, true, true, 8},
        KernelCase{{9, 9, 5}, true, false, 9},
        KernelCase{{4, 3, 3, 5}, false, false, 10}),
    ::testing::PrintToStringParamName());

// One const oracle serves many threads at once (the verifier and
// RouteTable share one), so a flood may
// keep no state in the oracle: four threads must get the serial sets.
TEST(FloodOracle, ConcurrentFloodsMatchSerial) {
  const MeshShape shape = MeshShape::torus({9, 8, 7});
  Rng rng(77);
  const OracleSweepParam faults_of{{9, 8, 7}, true, 20, 6, 6, 0};
  const FaultSet faults = random_faults(shape, faults_of, rng);
  const FloodOracle flood(shape, faults);
  const DimOrder asc = DimOrder::ascending(3);
  const DimOrder desc = DimOrder::descending(3);

  // Per source: forward, backward, and two-round floods.
  auto floods_of = [&](NodeId v) {
    const Point vp = shape.point(v);
    return std::vector<Bits>{flood.reach1_from(vp, desc),
                             flood.reach1_to(vp, asc),
                             flood.reach_from(vp, {asc, desc})};
  };
  std::vector<std::vector<Bits>> serial;
  for (NodeId v = 0; v < shape.size(); ++v) serial.push_back(floods_of(v));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<Bits>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks every source, from a different start, so the
      // threads flood different sources at the same time.
      std::vector<std::vector<Bits>>& mine = got[static_cast<std::size_t>(t)];
      mine.resize(static_cast<std::size_t>(shape.size()));
      for (NodeId i = 0; i < shape.size(); ++i) {
        const NodeId v = (i + t * shape.size() / kThreads) % shape.size();
        mine[static_cast<std::size_t>(v)] = floods_of(v);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace lamb
