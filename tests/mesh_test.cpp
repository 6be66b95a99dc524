// Unit tests for the mesh module: shapes (mesh, torus, hypercube),
// index/point round trips, neighbors and wrap, link identifiers,
// rectangular sets, and fault sets.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "mesh/rect_set.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

TEST(MeshShape, BasicProperties) {
  const MeshShape m = MeshShape::mesh({4, 5, 6});
  EXPECT_EQ(m.dim(), 3);
  EXPECT_EQ(m.size(), 120);
  EXPECT_EQ(m.width(0), 4);
  EXPECT_EQ(m.width(1), 5);
  EXPECT_EQ(m.width(2), 6);
  EXPECT_FALSE(m.wraps());
  EXPECT_EQ(m.to_string(), "M3(4x5x6)");
}

TEST(MeshShape, IndexPointRoundTrip) {
  const MeshShape m = MeshShape::mesh({3, 4, 5});
  for (NodeId id = 0; id < m.size(); ++id) {
    const Point p = m.point(id);
    EXPECT_TRUE(m.in_bounds(p));
    EXPECT_EQ(m.index(p), id);
  }
}

TEST(MeshShape, IndexIsRowMajorInFirstDim) {
  const MeshShape m = MeshShape::mesh({4, 4});
  EXPECT_EQ(m.index(Point{0, 0}), 0);
  EXPECT_EQ(m.index(Point{1, 0}), 1);
  EXPECT_EQ(m.index(Point{0, 1}), 4);
}

TEST(MeshShape, RejectsBadWidths) {
  EXPECT_THROW(MeshShape::mesh({1, 4}), std::invalid_argument);
  EXPECT_THROW(MeshShape::mesh({}), std::invalid_argument);
}

TEST(MeshShape, HypercubeIsAllTwos) {
  const MeshShape h = MeshShape::hypercube(5);
  EXPECT_EQ(h.size(), 32);
  for (int j = 0; j < 5; ++j) EXPECT_EQ(h.width(j), 2);
}

TEST(MeshShape, NeighborInsideMesh) {
  const MeshShape m = MeshShape::mesh({4, 4});
  Point q;
  ASSERT_TRUE(m.neighbor(Point{1, 2}, 0, Dir::Pos, &q));
  EXPECT_EQ(q, (Point{2, 2}));
  ASSERT_TRUE(m.neighbor(Point{1, 2}, 1, Dir::Neg, &q));
  EXPECT_EQ(q, (Point{1, 1}));
}

TEST(MeshShape, NeighborStopsAtMeshBoundary) {
  const MeshShape m = MeshShape::mesh({4, 4});
  Point q;
  EXPECT_FALSE(m.neighbor(Point{3, 0}, 0, Dir::Pos, &q));
  EXPECT_FALSE(m.neighbor(Point{0, 0}, 1, Dir::Neg, &q));
}

TEST(MeshShape, TorusWrapsAround) {
  const MeshShape t = MeshShape::torus({4, 4});
  Point q;
  ASSERT_TRUE(t.neighbor(Point{3, 1}, 0, Dir::Pos, &q));
  EXPECT_EQ(q, (Point{0, 1}));
  ASSERT_TRUE(t.neighbor(Point{0, 0}, 1, Dir::Neg, &q));
  EXPECT_EQ(q, (Point{0, 3}));
}

TEST(MeshShape, NumLinks) {
  // M_2(3): per row 2 undirected x-links * 3 rows, same for y => 12
  // undirected = 24 directed.
  EXPECT_EQ(MeshShape::mesh({3, 3}).num_links(), 24);
  // Torus adds the wrap links: 3 per line, 3 lines, 2 dims = 18 undirected.
  EXPECT_EQ(MeshShape::torus({3, 3}).num_links(), 36);
}

TEST(MeshShape, L1DistanceMeshAndTorus) {
  const MeshShape m = MeshShape::mesh({8, 8});
  const MeshShape t = MeshShape::torus({8, 8});
  EXPECT_EQ(m.l1_distance(Point{0, 0}, Point{7, 3}), 10);
  EXPECT_EQ(t.l1_distance(Point{0, 0}, Point{7, 3}), 4);  // wrap in x
}

TEST(RectSet, WholeMeshBox) {
  const MeshShape m = MeshShape::mesh({4, 5});
  const RectSet r(m);
  EXPECT_EQ(r.size(), 20);
  EXPECT_TRUE(r.contains(Point{3, 4}));
  EXPECT_EQ(r.representative(), (Point{0, 0}));
}

TEST(RectSet, ClampAndContains) {
  const MeshShape m = MeshShape::mesh({10, 10});
  RectSet r(m);
  r.clamp(0, 2, 5);
  r.clamp(1, 7, 7);
  EXPECT_EQ(r.size(), 4);
  EXPECT_TRUE(r.contains(Point{2, 7}));
  EXPECT_TRUE(r.contains(Point{5, 7}));
  EXPECT_FALSE(r.contains(Point{6, 7}));
  EXPECT_FALSE(r.contains(Point{3, 6}));
  EXPECT_EQ(r.representative(), (Point{2, 7}));
}

TEST(RectSet, IntersectionBox) {
  const MeshShape m = MeshShape::mesh({10, 10});
  RectSet a(m), b(m);
  a.clamp(0, 0, 5);
  b.clamp(0, 4, 9);
  b.clamp(1, 2, 3);
  ASSERT_TRUE(RectSet::intersects(a, b));
  const RectSet i = RectSet::intersection(a, b);
  EXPECT_EQ(i.size(), 2 * 2);
  EXPECT_TRUE(i.contains(Point{4, 2}));
  EXPECT_TRUE(i.contains(Point{5, 3}));
}

TEST(RectSet, DisjointIntersection) {
  const MeshShape m = MeshShape::mesh({10, 10});
  RectSet a(m), b(m);
  a.clamp(0, 0, 2);
  b.clamp(0, 3, 9);
  EXPECT_FALSE(RectSet::intersects(a, b));
  EXPECT_TRUE(RectSet::intersection(a, b).empty());
}

TEST(RectSet, CollectEnumeratesAllMembers) {
  const MeshShape m = MeshShape::mesh({6, 6});
  RectSet r(m);
  r.clamp(0, 1, 2);
  r.clamp(1, 3, 5);
  std::vector<NodeId> ids;
  r.collect(m, &ids);
  EXPECT_EQ(ids.size(), 6u);
  std::set<NodeId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 6u);
  for (NodeId id : ids) EXPECT_TRUE(r.contains(m.point(id)));
}

TEST(RectSet, ToStringShowsStarsIntervalsConstants) {
  const MeshShape m = MeshShape::mesh({12, 12});
  RectSet r(m);
  r.clamp(1, 3, 3);
  EXPECT_EQ(r.to_string(m), "(*,3)");
  r.clamp(0, 2, 5);
  EXPECT_EQ(r.to_string(m), "([2,5],3)");
}

TEST(FaultSet, NodeFaultsAreDeduplicated) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet f(m);
  f.add_node(Point{1, 1});
  f.add_node(Point{1, 1});
  EXPECT_EQ(f.num_node_faults(), 1);
  EXPECT_TRUE(f.node_faulty(Point{1, 1}));
  EXPECT_FALSE(f.node_faulty(Point{0, 0}));
  EXPECT_EQ(f.f(), 1);
  EXPECT_EQ(f.num_good_nodes(), 15);
}

TEST(FaultSet, BidirectionalLinkFaultBlocksBothDirections) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet f(m);
  f.add_link(Point{1, 1}, 0, Dir::Pos);  // link (1,1)<->(2,1)
  EXPECT_TRUE(f.link_faulty(Point{1, 1}, 0, Dir::Pos));
  EXPECT_TRUE(f.link_faulty(Point{2, 1}, 0, Dir::Neg));
  EXPECT_FALSE(f.link_faulty(Point{1, 1}, 0, Dir::Neg));
  EXPECT_EQ(f.f(), 1);
}

TEST(FaultSet, LinkFaultCanonicalizationDeduplicates) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet f(m);
  f.add_link(Point{1, 1}, 0, Dir::Pos);
  f.add_link(Point{2, 1}, 0, Dir::Neg);  // the same physical link
  EXPECT_EQ(f.num_link_faults(), 1);
}

TEST(FaultSet, DirectedLinkFaultBlocksOneDirection) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet f(m);
  f.add_directed_link(Point{1, 1}, 1, Dir::Pos);
  EXPECT_TRUE(f.link_faulty(Point{1, 1}, 1, Dir::Pos));
  EXPECT_FALSE(f.link_faulty(Point{1, 2}, 1, Dir::Neg));
  EXPECT_EQ(f.f(), 1);
}

TEST(FaultSet, RejectsNonexistentLink) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet f(m);
  EXPECT_THROW(f.add_link(Point{3, 0}, 0, Dir::Pos), std::invalid_argument);
  EXPECT_THROW(f.add_directed_link(Point{0, 0}, 1, Dir::Neg),
               std::invalid_argument);
}

TEST(FaultSet, TorusWrapLinkExists) {
  const MeshShape t = MeshShape::torus({4, 4});
  FaultSet f(t);
  EXPECT_NO_THROW(f.add_link(Point{3, 0}, 0, Dir::Pos));  // wraps to (0,0)
  EXPECT_TRUE(f.link_faulty(Point{3, 0}, 0, Dir::Pos));
  EXPECT_TRUE(f.link_faulty(Point{0, 0}, 0, Dir::Neg));
}

TEST(FaultSet, RandomNodesCountAndDistinct) {
  const MeshShape m = MeshShape::mesh({16, 16});
  Rng rng(99);
  const FaultSet f = FaultSet::random_nodes(m, 30, rng);
  EXPECT_EQ(f.num_node_faults(), 30);
  std::set<NodeId> unique(f.node_faults().begin(), f.node_faults().end());
  EXPECT_EQ(unique.size(), 30u);
}

TEST(FaultSet, RandomNodesDeterministicPerSeed) {
  const MeshShape m = MeshShape::mesh({16, 16});
  Rng a(5), b(5);
  EXPECT_EQ(FaultSet::random_nodes(m, 10, a).node_faults(),
            FaultSet::random_nodes(m, 10, b).node_faults());
}

TEST(FaultSet, RandomNodesRejectsCountOutsideMesh) {
  const MeshShape m = MeshShape::mesh({4, 4});
  Rng rng(1);
  EXPECT_THROW(FaultSet::random_nodes(m, 17, rng), std::invalid_argument);
  EXPECT_THROW(FaultSet::random_nodes(m, -1, rng), std::invalid_argument);
  EXPECT_EQ(FaultSet::random_nodes(m, 16, rng).num_node_faults(), 16);
  EXPECT_EQ(FaultSet::random_nodes(m, 0, rng).num_node_faults(), 0);
}

TEST(FaultDelta, SupersetYieldsNewFaultsInNowOrder) {
  const MeshShape m = MeshShape::mesh({6, 6});
  FaultSet then(m);
  then.add_node(NodeId{20});
  then.add_link(Point{1, 1}, 0, Dir::Pos);
  FaultSet now(m);
  now.add_node(NodeId{31});
  now.add_node(NodeId{20});
  now.add_node(NodeId{2});
  now.add_link(Point{4, 0}, 1, Dir::Pos);
  now.add_link(Point{2, 1}, 0, Dir::Neg);  // then's link, named from its other end
  now.add_directed_link(Point{0, 3}, 0, Dir::Pos);

  const std::optional<FaultDelta> d = fault_delta(then, now);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->nodes, (std::vector<NodeId>{2, 31}));
  ASSERT_EQ(d->links.size(), 2u);
  EXPECT_EQ(d->links[0], now.link_faults()[0]);
  EXPECT_EQ(d->links[1], now.link_faults()[2]);
}

TEST(FaultDelta, NonSupersetIsRefused) {
  const MeshShape m = MeshShape::mesh({6, 6});
  FaultSet then(m);
  then.add_node(NodeId{7});
  then.add_link(Point{0, 0}, 1, Dir::Pos);
  FaultSet missing_node(m);
  missing_node.add_node(NodeId{8});
  missing_node.add_link(Point{0, 0}, 1, Dir::Pos);
  EXPECT_FALSE(fault_delta(then, missing_node).has_value());
  FaultSet missing_link(m);
  missing_link.add_node(NodeId{7});
  missing_link.add_link(Point{0, 1}, 1, Dir::Pos);
  EXPECT_FALSE(fault_delta(then, missing_link).has_value());
}

TEST(FaultDelta, DirectedAndBidirectionalFaultsAreDistinct) {
  const MeshShape m = MeshShape::mesh({4, 4});
  FaultSet directed(m);
  directed.add_directed_link(Point{1, 1}, 0, Dir::Pos);
  FaultSet bidirectional(m);
  bidirectional.add_link(Point{1, 1}, 0, Dir::Pos);
  // A bidirectional fault blocks the directed link, but it is not the
  // same logical fault.
  EXPECT_FALSE(fault_delta(directed, bidirectional).has_value());
  EXPECT_FALSE(fault_delta(bidirectional, directed).has_value());

  FaultSet both(m);
  both.add_directed_link(Point{1, 1}, 0, Dir::Pos);
  both.add_link(Point{1, 1}, 0, Dir::Pos);
  ASSERT_EQ(both.num_link_faults(), 2);
  const std::optional<FaultDelta> d = fault_delta(bidirectional, both);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->links.size(), 1u);
  EXPECT_FALSE(d->links[0].bidirectional);
  EXPECT_EQ(d->links[0], both.link_faults()[0]);
}

TEST(FaultDelta, EqualSetsGiveEmptyDelta) {
  const MeshShape m = MeshShape::torus({4, 4});
  FaultSet a(m), b(m);
  for (FaultSet* f : {&a, &b}) {
    f->add_node(NodeId{5});
    f->add_link(Point{3, 0}, 0, Dir::Pos);
    f->add_directed_link(Point{2, 2}, 1, Dir::Neg);
  }
  const std::optional<FaultDelta> d = fault_delta(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->nodes.empty());
  EXPECT_TRUE(d->links.empty());
  const std::optional<FaultDelta> none = fault_delta(FaultSet(m), FaultSet(m));
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->nodes.empty());
  EXPECT_TRUE(none->links.empty());
}

}  // namespace
}  // namespace lamb
