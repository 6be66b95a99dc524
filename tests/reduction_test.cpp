// Tests for the Section 9 NP-hardness gadget: the three reachability
// properties of the Theorem 9.1 proof are verified by brute-force 2-round
// reachability on small instances, and a lamb set of the gadget must
// extract to a genuine vertex cover of the original graph.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "graph/general_wvc.hpp"
#include "reach/flood_oracle.hpp"
#include "reduction/vc_gadget.hpp"

namespace lamb {
namespace {

// A 4-vertex path graph: edges (0,1), (1,2), (2,3). Minimum VC = {1, 2}.
WeightedGraph path4() {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  return g;
}

// A triangle: minimum VC size 2.
WeightedGraph triangle() {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  return g;
}

class GadgetTest : public ::testing::TestWithParam<int> {
 protected:
  WeightedGraph input_graph() const {
    return GetParam() == 0 ? path4() : triangle();
  }
};

TEST_P(GadgetTest, StructureBasics) {
  const WeightedGraph g = input_graph();
  const VcGadget gadget(g);
  EXPECT_EQ(gadget.num_gadget_vertices(), g.num_vertices() + 1);
  EXPECT_GE(gadget.side(), 2 * gadget.num_gadget_vertices());
  // u_0 is isolated, so it is non-adjacent to every other gadget vertex.
  int u0_nonedges = 0;
  for (const auto& [a, b] : gadget.nonedges()) {
    if (a == 0) ++u0_nonedges;
    EXPECT_LT(a, b);
  }
  EXPECT_EQ(u0_nonedges, g.num_vertices());
  // Column nodes are never faulty.
  for (int t = 0; t < gadget.num_gadget_vertices(); ++t) {
    for (Coord y = 0; y < gadget.side(); ++y) {
      EXPECT_FALSE(gadget.faults().node_faulty(
          Point{gadget.column_coord(t), y, gadget.column_coord(t)}));
    }
  }
  // External nodes are never faulty.
  const Coord border = static_cast<Coord>(2 * gadget.num_gadget_vertices());
  EXPECT_FALSE(
      gadget.faults().node_faulty(Point{border, 0, 0}));
  EXPECT_FALSE(gadget.faults().node_faulty(
      Point{gadget.side() - 1, gadget.side() - 1, gadget.side() - 1}));
}

TEST_P(GadgetTest, ReachabilityProperties123) {
  const WeightedGraph g = input_graph();
  const VcGadget gadget(g);
  const MeshShape& shape = gadget.shape();
  const FloodOracle flood(shape, gadget.faults());
  std::vector<Bits> rows;
  for (NodeId id = 0; id < shape.size(); ++id) {
    rows.push_back(flood.reach_from(shape.point(id), ascending_rounds(3, 2)));
  }

  auto column_nodes = [&](int t) {
    std::vector<NodeId> nodes;
    for (Coord y = 0; y < gadget.side(); ++y) {
      nodes.push_back(
          shape.index(Point{gadget.column_coord(t), y, gadget.column_coord(t)}));
    }
    return nodes;
  };
  auto adjacent = [&](int a, int b) {
    // gadget vertices t >= 1 map to input vertices t-1; u_0 is isolated.
    if (a == 0 || b == 0) return false;
    return g.has_edge(a - 1, b - 1);
  };

  const int v = gadget.num_gadget_vertices();
  for (int a = 0; a < v; ++a) {
    for (int b = 0; b < v; ++b) {
      if (a == b) continue;
      for (NodeId x : column_nodes(a)) {
        for (NodeId y : column_nodes(b)) {
          const bool reach = rows[static_cast<std::size_t>(x)].test(y);
          if (!adjacent(a, b)) {
            // Property 1: non-adjacent columns fully 2-reach each other.
            EXPECT_TRUE(reach) << "cols " << a << "->" << b;
          } else {
            // Property 2: non-outlet nodes of adjacent columns cannot.
            const bool x_outlet = gadget.is_outlet(shape.point(x));
            const bool y_outlet = gadget.is_outlet(shape.point(y));
            if (!x_outlet && !y_outlet) {
              EXPECT_FALSE(reach) << "cols " << a << "->" << b;
            }
          }
        }
      }
    }
  }

  // Property 3: any column plus the external region is mutually reachable.
  const std::vector<NodeId> externals{
      shape.index(Point{static_cast<Coord>(2 * v), 0, 0}),
      shape.index(Point{gadget.side() - 1, 2, 1}),
      shape.index(Point{0, 1, gadget.side() - 1}),
  };
  for (NodeId e : externals) {
    ASSERT_TRUE(gadget.faults().node_good(e));
    for (NodeId e2 : externals) {
      EXPECT_TRUE(rows[static_cast<std::size_t>(e)].test(e2));
    }
    for (int t = 0; t < v; ++t) {
      for (NodeId x : column_nodes(t)) {
        EXPECT_TRUE(rows[static_cast<std::size_t>(x)].test(e))
            << "col " << t << " -> external";
        EXPECT_TRUE(rows[static_cast<std::size_t>(e)].test(x))
            << "external -> col " << t;
      }
    }
  }
}

TEST_P(GadgetTest, LambSetExtractsToVertexCover) {
  const WeightedGraph g = input_graph();
  const VcGadget gadget(g);
  const LambResult lambs = lamb1(gadget.shape(), gadget.faults(), {});
  EXPECT_TRUE(is_lamb_set(gadget.shape(), gadget.faults(),
                          ascending_rounds(3, 2), lambs.lambs));
  const std::vector<int> cover = gadget.extract_cover(lambs.lambs);
  EXPECT_TRUE(g.is_vertex_cover(cover));
}

TEST_P(GadgetTest, HandBuiltCoverLambSetIsValid) {
  // The Theorem 9.1 construction: lamb all column nodes of a cover's
  // vertices plus all path nodes; the result must be a valid lamb set.
  const WeightedGraph g = input_graph();
  const VcGadget gadget(g);
  const MeshShape& shape = gadget.shape();
  const auto cover = wvc_exact(g);
  ASSERT_TRUE(cover.has_value());

  std::vector<NodeId> lambs;
  for (int cv : *cover) {
    const int t = cv + 1;  // gadget vertex
    for (Coord y = 0; y < gadget.side(); ++y) {
      lambs.push_back(
          shape.index(Point{gadget.column_coord(t), y, gadget.column_coord(t)}));
    }
  }
  // All internal good nodes that are not column nodes are path nodes.
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (!gadget.faults().node_good(id)) continue;
    const Point p = shape.point(id);
    if (gadget.is_internal(p) && gadget.column_of(p) < 0) lambs.push_back(id);
  }
  EXPECT_TRUE(
      is_lamb_set(shape, gadget.faults(), ascending_rounds(3, 2), lambs));
}

INSTANTIATE_TEST_SUITE_P(Graphs, GadgetTest, ::testing::Values(0, 1));

TEST(Gadget, ExtraPlanesGrowTheMesh) {
  const WeightedGraph g = triangle();
  const VcGadget small(g);
  const VcGadget big(g, /*extra_planes=*/10);
  EXPECT_GT(big.side(), small.side());
}

}  // namespace
}  // namespace lamb
