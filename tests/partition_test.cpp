// Tests for Find-SES-Partition / Find-DES-Partition (paper Section 6.1):
// the exact 12x12 example of Figures 2-6, partition validity properties
// (pairwise disjoint, union = good nodes, genuine source/destination
// equivalence per Definition 4.1) over randomized sweeps, the Theorem 6.4
// size bound, its tightness constructions (Proposition 6.5, node and link
// variants), the diagonal (2d-1)f+1 example, and the incremental repair
// (repair_partition) against a fresh run on seeded fault deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>

#include "core/partition.hpp"
#include "core/theory.hpp"
#include "reach/flood_oracle.hpp"
#include "support/rng.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

MeshShape paper_mesh() { return MeshShape::cube(2, 12); }

FaultSet paper_faults(const MeshShape& shape) {
  FaultSet f(shape);
  f.add_node(Point{9, 1});
  f.add_node(Point{11, 6});
  f.add_node(Point{10, 10});
  return f;
}

RectSet make_rect(const MeshShape& shape, Coord xlo, Coord xhi, Coord ylo,
                  Coord yhi) {
  RectSet r(shape);
  r.clamp(0, xlo, xhi);
  r.clamp(1, ylo, yhi);
  return r;
}

bool partition_contains(const EquivPartition& part, const RectSet& rect) {
  return std::find(part.sets.begin(), part.sets.end(), rect) != part.sets.end();
}

// --- The paper's 12x12 example ------------------------------------------

TEST(PaperExample, SesPartitionMatchesFigure3) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const EquivPartition ses =
      find_ses_partition(shape, faults, DimOrder::ascending(2));
  ASSERT_EQ(ses.size(), 9);
  // The nine SES's of Figure 3.
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 11, 0, 0)));     // S1
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 8, 1, 1)));      // S2
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 10, 11, 1, 1)));    // S3
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 11, 2, 5)));     // S4
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 10, 6, 6)));     // S5
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 11, 7, 9)));     // S6
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 9, 10, 10)));    // S7
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 11, 11, 10, 10)));  // S8
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 11, 11, 11)));   // S9
}

TEST(PaperExample, DesPartitionMatchesFigure4) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const EquivPartition des =
      find_des_partition(shape, faults, DimOrder::ascending(2));
  ASSERT_EQ(des.size(), 7);
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 0, 8, 0, 11)));     // D1
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 9, 9, 0, 0)));      // D2
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 9, 9, 2, 11)));     // D3
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 10, 10, 0, 9)));    // D4
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 10, 10, 11, 11)));  // D5
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 11, 11, 0, 5)));    // D6
  EXPECT_TRUE(partition_contains(des, make_rect(shape, 11, 11, 7, 11)));   // D7
}

TEST(PaperExample, RepresentativesAreGoodNodes) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const EquivPartition ses =
      find_ses_partition(shape, faults, DimOrder::ascending(2));
  const EquivPartition des =
      find_des_partition(shape, faults, DimOrder::ascending(2));
  for (const EquivPartition* part : {&ses, &des}) {
    for (std::int64_t i = 0; i < part->size(); ++i) {
      EXPECT_FALSE(faults.node_faulty(part->rep(i)));
    }
  }
}

// --- Partition validity properties over random sweeps --------------------

struct PartitionSweepParam {
  std::vector<Coord> widths;
  int node_faults;
  int link_faults;
  bool descending_order;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const PartitionSweepParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, false, p.seed);
}

class PartitionSweep : public ::testing::TestWithParam<PartitionSweepParam> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    shape_ = std::make_unique<MeshShape>(MeshShape::mesh(p.widths));
    faults_ = std::make_unique<FaultSet>(*shape_);
    Rng rng(p.seed);
    for (NodeId id :
         sample_without_replacement(shape_->size(), p.node_faults, rng)) {
      faults_->add_node(id);
    }
    int added = 0;
    while (added < p.link_faults) {
      const NodeId id = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(shape_->size())));
      const int dim =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(shape_->dim())));
      Point other;
      if (!shape_->neighbor(shape_->point(id), dim, Dir::Pos, &other)) continue;
      faults_->add_link(shape_->point(id), dim, Dir::Pos);
      ++added;
    }
    order_ = std::make_unique<DimOrder>(
        p.descending_order ? DimOrder::descending(shape_->dim())
                           : DimOrder::ascending(shape_->dim()));
  }

  std::unique_ptr<MeshShape> shape_;
  std::unique_ptr<FaultSet> faults_;
  std::unique_ptr<DimOrder> order_;
};

void expect_partitions_good_nodes(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const EquivPartition& part) {
  std::vector<int> covered(static_cast<std::size_t>(shape.size()), 0);
  for (const RectSet& set : part.sets) {
    set.for_each([&](const Point& p) {
      covered[static_cast<std::size_t>(shape.index(p))]++;
    });
  }
  for (NodeId id = 0; id < shape.size(); ++id) {
    EXPECT_EQ(covered[static_cast<std::size_t>(id)],
              faults.node_faulty(id) ? 0 : 1)
        << "node " << id;
  }
}

TEST_P(PartitionSweep, SesSetsPartitionTheGoodNodes) {
  expect_partitions_good_nodes(*shape_, *faults_,
                               find_ses_partition(*shape_, *faults_, *order_));
}

TEST_P(PartitionSweep, DesSetsPartitionTheGoodNodes) {
  expect_partitions_good_nodes(*shape_, *faults_,
                               find_des_partition(*shape_, *faults_, *order_));
}

TEST_P(PartitionSweep, EverySesIsSourceEquivalent) {
  const EquivPartition ses = find_ses_partition(*shape_, *faults_, *order_);
  const FloodOracle flood(*shape_, *faults_);
  for (const RectSet& set : ses.sets) {
    const Bits rep_row = flood.reach1_from(set.representative(), *order_);
    set.for_each([&](const Point& member) {
      EXPECT_EQ(flood.reach1_from(member, *order_), rep_row)
          << "member of " << set.to_string(*shape_)
          << " differs from representative";
    });
  }
}

TEST_P(PartitionSweep, EveryDesIsDestinationEquivalent) {
  const EquivPartition des = find_des_partition(*shape_, *faults_, *order_);
  const FloodOracle flood(*shape_, *faults_);
  for (const RectSet& set : des.sets) {
    const Bits rep_col = flood.reach1_to(set.representative(), *order_);
    set.for_each([&](const Point& member) {
      EXPECT_EQ(flood.reach1_to(member, *order_), rep_col)
          << "member of " << set.to_string(*shape_)
          << " differs from representative";
    });
  }
}

TEST_P(PartitionSweep, SizeWithinTheorem64Bound) {
  const std::int64_t f = faults_->f();
  const std::int64_t bound = theorem64_bound(*shape_, f, *order_);
  EXPECT_LE(find_ses_partition(*shape_, *faults_, *order_).size(), bound);
  // The DES partition is an SES partition for the reversed order, so its
  // bound uses the reversed width order.
  const std::int64_t des_bound = theorem64_bound(*shape_, f, order_->reversed());
  EXPECT_LE(find_des_partition(*shape_, *faults_, *order_).size(), des_bound);
  EXPECT_LE(bound, coarse_partition_bound(shape_->dim(), f));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PartitionSweep,
    ::testing::Values(PartitionSweepParam{{10, 10}, 5, 0, false, 1},
                      PartitionSweepParam{{10, 10}, 0, 6, false, 2},
                      PartitionSweepParam{{10, 10}, 4, 4, false, 3},
                      PartitionSweepParam{{10, 10}, 4, 4, true, 4},
                      PartitionSweepParam{{9, 7}, 6, 2, false, 5},
                      PartitionSweepParam{{6, 6, 6}, 8, 0, false, 6},
                      PartitionSweepParam{{6, 6, 6}, 5, 5, false, 7},
                      PartitionSweepParam{{6, 6, 6}, 5, 5, true, 8},
                      PartitionSweepParam{{5, 6, 7}, 10, 0, false, 9},
                      PartitionSweepParam{{4, 4, 4, 4}, 8, 4, false, 10},
                      PartitionSweepParam{{2, 2, 2, 2, 2, 2}, 6, 0, false, 11},
                      PartitionSweepParam{{12, 12}, 30, 0, false, 12},
                      PartitionSweepParam{{6, 6, 6}, 40, 0, false, 13},
                      PartitionSweepParam{{16, 4}, 8, 2, false, 14},
                      PartitionSweepParam{{4, 16}, 8, 2, true, 15},
                      PartitionSweepParam{{3, 3, 3, 3, 3}, 9, 3, false, 16},
                      PartitionSweepParam{{10, 10}, 50, 10, false, 17},
                      PartitionSweepParam{{7, 11}, 0, 12, true, 18}),
    ::testing::PrintToStringParamName());

// --- Degenerate and structured cases --------------------------------------

TEST(Partition, NoFaultsGivesSingleSet) {
  const MeshShape shape = MeshShape::cube(3, 5);
  const FaultSet faults(shape);
  const EquivPartition ses =
      find_ses_partition(shape, faults, DimOrder::ascending(3));
  ASSERT_EQ(ses.size(), 1);
  EXPECT_EQ(ses.sets[0].size(), shape.size());
}

TEST(Partition, AllNodesFaultyGivesEmptyPartition) {
  const MeshShape shape = MeshShape::cube(2, 2);
  FaultSet faults(shape);
  for (NodeId id = 0; id < shape.size(); ++id) faults.add_node(id);
  EXPECT_EQ(find_ses_partition(shape, faults, DimOrder::ascending(2)).size(), 0);
}

TEST(Partition, RejectsTorus) {
  const MeshShape torus = MeshShape::torus({5, 5});
  const FaultSet faults(torus);
  EXPECT_THROW(find_ses_partition(torus, faults, DimOrder::ascending(2)),
               std::invalid_argument);
}

TEST(Partition, DimensionJLinkFaultSplitsInterval) {
  const MeshShape shape = MeshShape::cube(2, 8);
  FaultSet faults(shape);
  faults.add_link(Point{3, 4}, 1, Dir::Pos);  // y-link between (3,4),(3,5)
  const EquivPartition ses =
      find_ses_partition(shape, faults, DimOrder::ascending(2));
  // Peeling Y: the cut splits rows [0,4] | [5,7] into two star blocks.
  ASSERT_EQ(ses.size(), 2);
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 7, 0, 4)));
  EXPECT_TRUE(partition_contains(ses, make_rect(shape, 0, 7, 5, 7)));
}

TEST(Theorem64, Prop65NodeFaultsMeetBoundExactly) {
  for (const auto& [d, n, f] : std::vector<std::tuple<int, Coord, int>>{
           {2, 9, 3},
           {2, 9, 4},
           {2, 9, 20},
           {3, 5, 2},
           {3, 5, 10},
           {3, 5, 30},
           {2, 13, 6},
           {3, 7, 49}}) {
    const MeshShape shape = MeshShape::cube(d, n);
    const FaultSet faults = prop65_faults(shape, f, /*link_faults=*/false);
    ASSERT_EQ(faults.f(), f);
    const EquivPartition ses =
        find_ses_partition(shape, faults, DimOrder::ascending(d));
    EXPECT_EQ(ses.size(), theorem64_bound(shape, f, DimOrder::ascending(d)))
        << "d=" << d << " n=" << n << " f=" << f;
  }
}

TEST(Theorem64, Prop65LinkFaultsMeetBoundExactly) {
  for (const auto& [d, n, f] : std::vector<std::tuple<int, Coord, int>>{
           {2, 9, 3}, {2, 9, 20}, {3, 5, 10}}) {
    const MeshShape shape = MeshShape::cube(d, n);
    const FaultSet faults = prop65_faults(shape, f, /*link_faults=*/true);
    ASSERT_EQ(faults.f(), f);
    const EquivPartition ses =
        find_ses_partition(shape, faults, DimOrder::ascending(d));
    EXPECT_EQ(ses.size(), theorem64_bound(shape, f, DimOrder::ascending(d)))
        << "d=" << d << " n=" << n << " f=" << f;
  }
}

TEST(Theorem64, DiagonalFaultsMeetCoarseBound) {
  for (const auto& [d, n, f] : std::vector<std::tuple<int, Coord, int>>{
           {2, 9, 4}, {3, 9, 4}, {3, 11, 5}}) {
    const MeshShape shape = MeshShape::cube(d, n);
    const FaultSet faults = diagonal_faults(shape, f);
    EXPECT_EQ(find_ses_partition(shape, faults, DimOrder::ascending(d)).size(),
              coarse_partition_bound(d, f));
    EXPECT_EQ(find_des_partition(shape, faults, DimOrder::ascending(d)).size(),
              coarse_partition_bound(d, f));
  }
}

TEST(Theorem64, BoundFormulaSmallCases) {
  // d=1: B = f + 1 (empty sum).
  EXPECT_EQ(theorem64_bound(MeshShape::mesh({9}), 3, DimOrder::ascending(1)), 4);
  // d=2, n=9, f=3: min(2*3, 9-1) + 3 + 1 = 6 + 4 = 10.
  EXPECT_EQ(theorem64_bound(MeshShape::cube(2, 9), 3, DimOrder::ascending(2)),
            10);
  // Saturated case: d=2, n=9, f=100: min(200, 8) + 101 = 109.
  EXPECT_EQ(theorem64_bound(MeshShape::cube(2, 9), 100, DimOrder::ascending(2)),
            109);
}

TEST(Partition, FindLocatesContainingSet) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const EquivPartition ses =
      find_ses_partition(shape, faults, DimOrder::ascending(2));
  const std::int64_t idx = ses.find(Point{11, 10});
  ASSERT_GE(idx, 0);
  EXPECT_EQ(ses.sets[static_cast<std::size_t>(idx)].size(), 1);
  EXPECT_EQ(ses.find(Point{9, 1}), -1);  // faulty node is in no set
}

// --- Incremental repair ----------------------------------------------------

// Adds 1-3 random new faults to `faults`, each a node, a bidirectional
// link or a directed link, and lists them as the delta the repair takes.
void add_random_delta(const MeshShape& shape, FaultSet& faults, Rng& rng,
                      std::vector<Point>* delta_nodes,
                      std::vector<LinkFault>* delta_links) {
  const int count = 1 + static_cast<int>(rng.below(3));
  for (int added = 0; added < count;) {
    const Point p = shape.point(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size()))));
    const int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {
      if (faults.node_faulty(p)) continue;
      faults.add_node(p);
      delta_nodes->push_back(p);
      ++added;
      continue;
    }
    const int dim =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.dim())));
    const Dir dir = rng.below(2) == 0 ? Dir::Pos : Dir::Neg;
    Point nb;
    if (!shape.neighbor(p, dim, dir, &nb) || faults.link_faulty(p, dim, dir)) {
      continue;
    }
    faults.add(LinkFault{p, dim, dir, /*bidirectional=*/kind == 1});
    delta_links->push_back(faults.link_faults().back());  // as recorded
    ++added;
  }
}

// A non-ascending ordering: dimension t + 1 routed at step t, wrapping.
DimOrder rotated_order(int d) {
  std::vector<int> perm(static_cast<std::size_t>(d));
  for (int t = 0; t < d; ++t) perm[static_cast<std::size_t>(t)] = (t + 1) % d;
  return DimOrder(perm);
}

void expect_same_spans(const PartitionSpans& got, const PartitionSpans& want) {
  EXPECT_EQ(got.coords, want.coords);
  EXPECT_EQ(got.spans, want.spans);
  EXPECT_EQ(got.tail_begin, want.tail_begin);
}

// Every repair that returns is a fresh Find-Partition of the new fault
// set, set for set and span for span; every kept cell names an equal old
// cell, and the counters add up to the partition size.
TEST(PartitionRepair, MatchesFreshPartitionOnSeededDeltas) {
  const std::vector<std::vector<Coord>> meshes = {{16, 16}, {8, 8, 8},
                                                  {6, 5, 4}};
  std::uint64_t seed = 40;
  for (const std::vector<Coord>& widths : meshes) {
    const MeshShape shape = MeshShape::mesh(widths);
    const int d = shape.dim();
    for (const DimOrder& order : {DimOrder::ascending(d), rotated_order(d)}) {
      for (const bool des : {false, true}) {
        SCOPED_TRACE(sweep_name(widths, false, seed) + " " +
                     order.to_string() + (des ? " DES" : " SES"));
        const auto find = des ? find_des_partition : find_ses_partition;
        Rng rng(seed++);
        FaultSet before = FaultSet::random_nodes(
            shape, std::max<std::int64_t>(2, shape.size() / 25), rng);
        before.add_link(shape.point(shape.size() / 2), 0, Dir::Pos);
        PartitionSpans prev_spans;
        const EquivPartition prev = find(shape, before, order, &prev_spans);
        int repaired = 0;
        for (int trial = 0; trial < 30; ++trial) {
          FaultSet after(before, shape);
          std::vector<Point> delta_nodes;
          std::vector<LinkFault> delta_links;
          add_random_delta(shape, after, rng, &delta_nodes, &delta_links);
          const std::optional<PartitionRepair> rep =
              repair_partition(shape, after, delta_nodes, delta_links, order,
                               des, prev, prev_spans);
          if (!rep) continue;
          ++repaired;
          PartitionSpans want_spans;
          const EquivPartition want = find(shape, after, order, &want_spans);
          ASSERT_EQ(rep->partition.sets, want.sets) << "trial " << trial;
          expect_same_spans(rep->spans, want_spans);
          ASSERT_EQ(rep->old_of_new.size(), want.sets.size());
          for (std::size_t i = 0; i < rep->old_of_new.size(); ++i) {
            const std::int64_t o = rep->old_of_new[i];
            if (o < 0) continue;
            ASSERT_LT(o, prev.size());
            EXPECT_EQ(prev.sets[static_cast<std::size_t>(o)], want.sets[i])
                << "trial " << trial << " cell " << i;
          }
          EXPECT_EQ(rep->cells_reused + rep->cells_recomputed, want.size());
        }
        EXPECT_GT(repaired, 0);
      }
    }
  }
}

// New faults in three fresh outer hyperplanes against two blocked ones
// dirty three of five: the repair bails to a full run.
TEST(PartitionRepair, MostHyperplanesDirtyBails) {
  const MeshShape shape = MeshShape::cube(2, 16);
  FaultSet before(shape);
  before.add_node(Point{3, 7});
  before.add_node(Point{9, 14});
  for (const bool des : {false, true}) {
    SCOPED_TRACE(des ? "DES" : "SES");
    const DimOrder order = DimOrder::ascending(2);
    PartitionSpans prev_spans;
    const EquivPartition prev =
        des ? find_des_partition(shape, before, order, &prev_spans)
            : find_ses_partition(shape, before, order, &prev_spans);
    ASSERT_EQ(prev_spans.coords.size(), 2u);
    const std::vector<Point> delta = {Point{1, 1}, Point{5, 5},
                                      Point{12, 12}};
    FaultSet after(before, shape);
    for (const Point& p : delta) after.add_node(p);
    EXPECT_FALSE(repair_partition(shape, after, delta, {}, order, des, prev,
                                  prev_spans));
    // One fresh hyperplane of three blocked ones is spliced, not bailed.
    FaultSet one(before, shape);
    one.add_node(delta[0]);
    EXPECT_TRUE(repair_partition(shape, one, {delta[0]}, {}, order, des, prev,
                                 prev_spans));
  }
}

}  // namespace
}  // namespace lamb
