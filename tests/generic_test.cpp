// Tests for the generic-topology lamb solver (paper Section 7): it must
// produce valid lamb sets on meshes (agreeing with the Lamb1 machinery up
// to the 2-approximation guarantee), handle tori — where the rectangular
// partition does not apply — and hypercubes, and its SEC/DEC class counts
// must never exceed the rectangular SES/DES partition sizes (SEC/DEC
// partitions are the minimal ones, Remark 4.1).
#include <gtest/gtest.h>

#include <memory>

#include "core/lamb.hpp"
#include "core/optimal.hpp"
#include "core/verifier.hpp"
#include "generic/generic_solver.hpp"
#include "support/rng.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

TEST(GenericSolver, PaperExampleMatchesLamb1) {
  const MeshShape shape = MeshShape::cube(2, 12);
  FaultSet faults(shape);
  faults.add_node(Point{9, 1});
  faults.add_node(Point{11, 6});
  faults.add_node(Point{10, 10});
  const auto orders = ascending_rounds(2, 2);
  const GenericLambResult generic = generic_lamb(shape, faults, orders);
  EXPECT_TRUE(is_lamb_set(shape, faults, orders, generic.lambs));
  EXPECT_EQ(static_cast<std::int64_t>(generic.lambs.size()), 2);
  // SEC/DEC partitions are the minimal SES/DES partitions; for this
  // example both coincide with Figures 3 and 4.
  EXPECT_EQ(generic.num_sec, 9);
  EXPECT_EQ(generic.num_dec, 7);
}

struct GenericSweepParam {
  std::vector<Coord> widths;
  bool torus;
  int node_faults;
  int rounds;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const GenericSweepParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, p.torus, p.seed);
}

class GenericSweep : public ::testing::TestWithParam<GenericSweepParam> {};

TEST_P(GenericSweep, ProducesValidLambSets) {
  const auto& p = GetParam();
  const MeshShape shape =
      p.torus ? MeshShape::torus(p.widths) : MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = FaultSet::random_nodes(shape, p.node_faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);
  const GenericLambResult result = generic_lamb(shape, faults, orders);
  EXPECT_TRUE(is_lamb_set(shape, faults, orders, result.lambs));
}

TEST_P(GenericSweep, WithinTwiceOptimal) {
  const auto& p = GetParam();
  const MeshShape shape =
      p.torus ? MeshShape::torus(p.widths) : MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0x55);
  const FaultSet faults = FaultSet::random_nodes(shape, p.node_faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);
  const GenericLambResult result = generic_lamb(shape, faults, orders);
  const auto optimal = optimal_lamb_set(shape, faults, orders);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_LE(result.lambs.size(), 2 * optimal->size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, GenericSweep,
    ::testing::Values(GenericSweepParam{{8, 8}, false, 6, 2, 1},
                      GenericSweepParam{{8, 8}, true, 6, 2, 2},
                      GenericSweepParam{{8, 8}, true, 10, 2, 3},
                      GenericSweepParam{{6, 6, 6}, false, 10, 2, 4},
                      GenericSweepParam{{5, 5, 5}, true, 8, 2, 5},
                      GenericSweepParam{{8, 8}, true, 6, 1, 6},
                      GenericSweepParam{{8, 8}, true, 6, 3, 7},
                      GenericSweepParam{{2, 2, 2, 2, 2}, false, 4, 2, 8},
                      GenericSweepParam{{12, 6}, true, 8, 2, 9},
                      GenericSweepParam{{6, 12}, true, 8, 2, 10},
                      GenericSweepParam{{8, 8}, true, 16, 2, 11}),
    ::testing::PrintToStringParamName());

TEST(GenericSolver, ClassCountsNeverExceedRectangularPartition) {
  Rng rng(91);
  for (int trial = 0; trial < 5; ++trial) {
    const MeshShape shape = MeshShape::cube(2, 10);
    const FaultSet faults = FaultSet::random_nodes(shape, 8, rng);
    const GenericLambResult generic =
        generic_lamb(shape, faults, ascending_rounds(2, 2));
    const LambResult rect = lamb1(shape, faults, {});
    EXPECT_LE(generic.num_sec, rect.stats.p);
    EXPECT_LE(generic.num_dec, rect.stats.q);
  }
}

TEST(GenericSolver, TorusNeedsFewerLambsThanMesh) {
  // The wrap links give the torus strictly more routes, so on the same
  // fault set a torus lamb set is never forced to be larger than some
  // valid mesh lamb set. We check the weaker, robust property: the torus
  // result is a valid lamb set and no larger than the mesh's FULL good
  // node count (sanity), plus a known concrete case where wrap rescues a
  // corner: a fault wall at column 1 on a mesh isolates column 0, but on
  // a torus column 0 routes around.
  const std::vector<Coord> widths{6, 6};
  const MeshShape mesh = MeshShape::mesh(widths);
  const MeshShape torus = MeshShape::torus(widths);
  auto wall = [](const MeshShape& s) {
    FaultSet f(s);
    for (Coord y = 0; y < 6; ++y) f.add_node(Point{1, y});
    return f;
  };
  const FaultSet mesh_faults = wall(mesh);
  const FaultSet torus_faults = wall(torus);
  const auto orders = ascending_rounds(2, 2);
  const GenericLambResult on_mesh = generic_lamb(mesh, mesh_faults, orders);
  const GenericLambResult on_torus = generic_lamb(torus, torus_faults, orders);
  EXPECT_TRUE(is_lamb_set(mesh, mesh_faults, orders, on_mesh.lambs));
  EXPECT_TRUE(is_lamb_set(torus, torus_faults, orders, on_torus.lambs));
  // Mesh: column 0 (6 nodes) is cut off and must be sacrificed entirely.
  EXPECT_EQ(on_mesh.lambs.size(), 6u);
  // Torus: wrap links keep everything connected; no lambs at all.
  EXPECT_EQ(on_torus.lambs.size(), 0u);
}

TEST(GenericSolver, NodeValuesRespected) {
  const MeshShape shape = MeshShape::cube(2, 12);
  FaultSet faults(shape);
  faults.add_node(Point{9, 1});
  faults.add_node(Point{11, 6});
  faults.add_node(Point{10, 10});
  std::vector<double> values(static_cast<std::size_t>(shape.size()), 1.0);
  values[static_cast<std::size_t>(shape.index(Point{11, 10}))] = 0.0;
  const GenericLambResult result =
      generic_lamb(shape, faults, ascending_rounds(2, 2), &values);
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  EXPECT_LE(result.cover_weight, 1.0 + 1e-9);
}

TEST(GenericSolver, RejectsOversizedInputs) {
  std::vector<char> good;
  std::vector<std::vector<Bits>> rows(1);
  EXPECT_THROW(
      generic_lamb_from_rows((std::int64_t{1} << 14) + 1, good, rows),
      std::invalid_argument);
}

TEST(GenericSolver, RejectsZeroRounds) {
  std::vector<char> good(4, 1);
  std::vector<std::vector<Bits>> rows;
  EXPECT_THROW(generic_lamb_from_rows(4, good, rows), std::invalid_argument);
}

}  // namespace
}  // namespace lamb
