// Edge-case coverage across modules: 1-dimensional meshes (the base case
// of the partition recursion), minimum-size meshes, extreme fault
// densities, single-survivor configurations, and degenerate solver
// inputs. These are the configurations most likely to expose off-by-one
// errors in interval splitting and cover extraction.
#include <gtest/gtest.h>

#include "core/lamb.hpp"
#include "core/optimal.hpp"
#include "core/verifier.hpp"
#include "reach/flood_oracle.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

// --- 1D meshes --------------------------------------------------------------

TEST(OneD, PartitionSplitsAtFaults) {
  const MeshShape line = MeshShape::mesh({10});
  FaultSet faults(line);
  faults.add_node(Point{3});
  faults.add_node(Point{7});
  const EquivPartition ses =
      find_ses_partition(line, faults, DimOrder::ascending(1));
  ASSERT_EQ(ses.size(), 3);  // [0,2], [4,6], [8,9]
  std::int64_t covered = 0;
  for (const RectSet& s : ses.sets) covered += s.size();
  EXPECT_EQ(covered, 8);
}

TEST(OneD, LambMustSacrificeAllButOneComponent) {
  // A fault splits a line in two; more rounds cannot reconnect it, so the
  // smaller component must be lambed regardless of k.
  const MeshShape line = MeshShape::mesh({10});
  FaultSet faults(line);
  faults.add_node(Point{3});  // components [0,2] (3 nodes), [4,9] (6 nodes)
  for (int k : {1, 2, 3}) {
    LambOptions options;
    options.rounds = k;
    const LambResult result = lamb1(line, faults, options);
    EXPECT_EQ(result.size(), 3) << "k=" << k;
    EXPECT_TRUE(
        is_lamb_set(line, faults, ascending_rounds(1, k), result.lambs));
  }
}

TEST(OneD, LinkFaultSplitsWithoutKillingNodes) {
  const MeshShape line = MeshShape::mesh({10});
  FaultSet faults(line);
  faults.add_link(Point{4}, 0, Dir::Pos);  // cut between 4 and 5
  const EquivPartition ses =
      find_ses_partition(line, faults, DimOrder::ascending(1));
  ASSERT_EQ(ses.size(), 2);
  // Two equal disconnected components: the optimum kills one (5 nodes);
  // Lamb1's bipartite cover must take a whole side of the relevant
  // SES/DES graph and lands at exactly twice that — the Figure 15
  // mechanism in its smallest form.
  const LambResult result = lamb1(line, faults, {});
  EXPECT_EQ(result.size(), 10);
  EXPECT_TRUE(is_lamb_set(line, faults, ascending_rounds(1, 2), result.lambs));
  const auto optimal = optimal_lamb_set(line, faults, ascending_rounds(1, 2));
  ASSERT_TRUE(optimal.has_value());
  EXPECT_EQ(optimal->size(), 5u);
}

TEST(OneD, DirectedLinkFaultStillPartitionsSides) {
  // One-way cut: 0..4 cannot reach 5..9 but the reverse works; both
  // sides are still inequivalent, and a lamb set must break the pair.
  const MeshShape line = MeshShape::mesh({10});
  FaultSet faults(line);
  faults.add_directed_link(Point{4}, 0, Dir::Pos);
  const FloodOracle flood(line, faults);
  EXPECT_FALSE(flood.reach1_from(Point{0}, DimOrder::ascending(1))
                   .test(line.index(Point{9})));
  EXPECT_TRUE(flood.reach1_from(Point{9}, DimOrder::ascending(1))
                  .test(line.index(Point{0})));
  const LambResult result = lamb1(line, faults, {});
  EXPECT_TRUE(is_lamb_set(line, faults, ascending_rounds(1, 2), result.lambs));
  EXPECT_EQ(result.size(), 5);
}

// --- Minimum meshes ----------------------------------------------------------

TEST(Minimum, TwoByTwoWithOneFault) {
  const MeshShape shape = MeshShape::cube(2, 2);
  FaultSet faults(shape);
  faults.add_node(Point{0, 0});
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  // (1,0),(0,1),(1,1) remain mutually 2-XY-reachable: no lambs needed.
  EXPECT_EQ(result.size(), 0);
}

TEST(Minimum, TwoByTwoOppositeCornersFaulty) {
  const MeshShape shape = MeshShape::cube(2, 2);
  FaultSet faults(shape);
  faults.add_node(Point{0, 0});
  faults.add_node(Point{1, 1});
  // (1,0) and (0,1) are totally disconnected: optimally one is
  // sacrificed; Lamb1's cover takes both (2-approximation slack on
  // symmetric components), and the exact solvers find the optimum.
  const LambResult approx = lamb1(shape, faults, {});
  EXPECT_EQ(approx.size(), 2);
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), approx.lambs));
  const LambResult exact = lamb2(shape, faults, {}, /*exact=*/true);
  EXPECT_EQ(exact.size(), 1);
  const auto optimal = optimal_lamb_set(shape, faults, ascending_rounds(2, 2));
  ASSERT_TRUE(optimal.has_value());
  EXPECT_EQ(optimal->size(), 1u);
}

TEST(Minimum, SingleSurvivorNeedsNoLambs) {
  const MeshShape shape = MeshShape::cube(2, 2);
  FaultSet faults(shape);
  faults.add_node(Point{0, 0});
  faults.add_node(Point{1, 0});
  faults.add_node(Point{0, 1});
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_EQ(result.size(), 0);  // one node trivially reaches itself
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
}

TEST(Minimum, AllNodesFaulty) {
  const MeshShape shape = MeshShape::cube(2, 2);
  FaultSet faults(shape);
  for (NodeId id = 0; id < shape.size(); ++id) faults.add_node(id);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_EQ(result.size(), 0);
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
}

// --- Extreme densities --------------------------------------------------------

TEST(Extreme, HalfTheMeshFaulty) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng rng(71);
  const FaultSet faults = FaultSet::random_nodes(shape, 32, rng);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  // Survivors exist unless the WVC had to take everything.
  EXPECT_LE(result.size(), faults.num_good_nodes());
}

TEST(Extreme, CheckerboardFaults) {
  // Faults on one parity class leave no two good nodes adjacent; one
  // round of XY reaches only same-row/column stragglers, so the solver
  // faces a dense bad-pair structure and must still return a VALID set.
  const MeshShape shape = MeshShape::cube(2, 6);
  FaultSet faults(shape);
  for (NodeId id = 0; id < shape.size(); ++id) {
    const Point p = shape.point(id);
    if ((p[0] + p[1]) % 2 == 0) faults.add_node(id);
  }
  for (int k : {1, 2}) {
    LambOptions options;
    options.rounds = k;
    const LambResult result = lamb1(shape, faults, options);
    EXPECT_TRUE(
        is_lamb_set(shape, faults, ascending_rounds(2, k), result.lambs))
        << "k=" << k;
  }
}

TEST(Extreme, FullFaultRowAndColumnCross) {
  // A cross of faults quarters the mesh; all but the largest quadrant
  // must die. Checks the optimal solver agrees with the component logic.
  const MeshShape shape = MeshShape::cube(2, 7);
  FaultSet faults(shape);
  for (Coord i = 0; i < 7; ++i) {
    faults.add_node(Point{3, i});
    faults.add_node(Point{i, 3});
  }
  const auto optimal = optimal_lamb_set(shape, faults, ascending_rounds(2, 2));
  ASSERT_TRUE(optimal.has_value());
  // Four 3x3 quadrants; keep one, sacrifice three.
  EXPECT_EQ(optimal->size(), 27u);
  const LambResult approx = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), approx.lambs));
  EXPECT_LE(approx.size(), 2 * 27);
}

// --- Degenerate solver inputs --------------------------------------------------

TEST(Degenerate, NonSquareMeshesWork) {
  const MeshShape shape = MeshShape::mesh({3, 17, 2});
  Rng rng(72);
  const FaultSet faults = FaultSet::random_nodes(shape, 6, rng);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(3, 2), result.lambs));
}

TEST(Degenerate, SevenDimensionalHypercube) {
  const MeshShape shape = MeshShape::hypercube(7);  // 128 nodes
  Rng rng(73);
  const FaultSet faults = FaultSet::random_nodes(shape, 9, rng);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(7, 2), result.lambs));
}

TEST(Degenerate, ManyRoundsConvergeToConnectivity) {
  // With enough rounds, reachability saturates to connected components
  // under repeated dimension-ordered hops; the lamb count stabilizes.
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng rng(74);
  const FaultSet faults = FaultSet::random_nodes(shape, 14, rng);
  std::int64_t prev = -1;
  for (int k = 2; k <= 6; ++k) {
    LambOptions options;
    options.rounds = k;
    const std::int64_t size = lamb1(shape, faults, options).size();
    if (prev >= 0) {
      EXPECT_LE(size, prev) << "k=" << k;
    }
    prev = size;
  }
}

TEST(Degenerate, PredeterminedEverythingGood) {
  const MeshShape shape = MeshShape::cube(2, 4);
  FaultSet faults(shape);
  faults.add_node(Point{1, 1});
  LambOptions options;
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (faults.node_good(id)) options.predetermined.push_back(id);
  }
  const LambResult result = lamb1(shape, faults, options);
  EXPECT_EQ(result.size(), faults.num_good_nodes());
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
}

TEST(Degenerate, ZeroValuesEverywhere) {
  const MeshShape shape = MeshShape::cube(2, 8);
  Rng rng(75);
  const FaultSet faults = FaultSet::random_nodes(shape, 8, rng);
  std::vector<double> values((std::size_t)shape.size(), 0.0);
  LambOptions options;
  options.node_values = &values;
  const LambResult result = lamb1(shape, faults, options);
  // Weight-0 cover: the solver may take generous lamb sets, but validity
  // must hold and the cover weight must be 0.
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  EXPECT_DOUBLE_EQ(result.stats.cover_weight, 0.0);
}

}  // namespace
}  // namespace lamb
