// Tests for the text serialization module: parsing, error reporting with
// line numbers, round trips of every fault kind and of lamb sets, and
// geometry specs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <sstream>

#include "io/text_format.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

TEST(IoParse, MinimalMesh) {
  const io::Document doc = io::parse_string("mesh 4 4\n");
  EXPECT_EQ(doc.shape->to_string(), "M2(4x4)");
  EXPECT_EQ(doc.faults->f(), 0);
  EXPECT_TRUE(doc.lambs.empty());
}

TEST(IoParse, CommentsAndBlankLines) {
  const io::Document doc = io::parse_string(
      "# a fault report\n"
      "\n"
      "mesh 8 8   # widths\n"
      "node 1 2   # dead\n");
  EXPECT_EQ(doc.faults->num_node_faults(), 1);
  EXPECT_TRUE(doc.faults->node_faulty(Point{1, 2}));
}

TEST(IoParse, AllFaultKinds) {
  const io::Document doc = io::parse_string(
      "mesh 6 6 6\n"
      "node 0 1 2\n"
      "link 1 1 1 0 +\n"
      "unilink 2 2 2 1 -\n");
  EXPECT_EQ(doc.faults->num_node_faults(), 1);
  EXPECT_EQ(doc.faults->num_link_faults(), 2);
  EXPECT_TRUE(doc.faults->link_faulty(Point{1, 1, 1}, 0, Dir::Pos));
  EXPECT_TRUE(doc.faults->link_faulty(Point{2, 1, 1}, 0, Dir::Neg));
  EXPECT_TRUE(doc.faults->link_faulty(Point{2, 2, 2}, 1, Dir::Neg));
  EXPECT_FALSE(doc.faults->link_faulty(Point{2, 1, 2}, 1, Dir::Pos));
}

TEST(IoParse, LambLines) {
  const io::Document doc = io::parse_string(
      "mesh 4 4\n"
      "lamb 3 3\n"
      "lamb 0 0\n"
      "lamb 3 3\n");  // duplicate collapses
  const MeshShape& shape = *doc.shape;
  const std::vector<NodeId> want{shape.index(Point{0, 0}),
                                 shape.index(Point{3, 3})};
  EXPECT_EQ(doc.lambs, want);
}

TEST(IoParse, Torus) {
  const io::Document doc = io::parse_string("torus 5 7\n");
  EXPECT_TRUE(doc.shape->wraps());
  EXPECT_EQ(doc.shape->width(1), 7);
}

TEST(IoParse, ErrorsCarryLineNumbers) {
  try {
    io::parse_string("mesh 4 4\nnode 9 9\n");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(IoParse, RejectsDirectivesBeforeMesh) {
  EXPECT_THROW(io::parse_string("node 1 1\nmesh 4 4\n"), io::ParseError);
}

TEST(IoParse, RejectsUnknownDirective) {
  EXPECT_THROW(io::parse_string("mesh 4 4\nfrobnicate 1\n"), io::ParseError);
}

TEST(IoParse, RejectsDuplicateMesh) {
  EXPECT_THROW(io::parse_string("mesh 4 4\nmesh 4 4\n"), io::ParseError);
}

TEST(IoParse, RejectsBadCoordinates) {
  EXPECT_THROW(io::parse_string("mesh 4 4\nnode 1\n"), io::ParseError);
  EXPECT_THROW(io::parse_string("mesh 4 4\nnode a b\n"), io::ParseError);
  EXPECT_THROW(io::parse_string("mesh 4 4\nnode -1 0\n"), io::ParseError);
}

TEST(IoParse, RejectsBadLink) {
  EXPECT_THROW(io::parse_string("mesh 4 4\nlink 3 0 0 +\n"), io::ParseError);
  EXPECT_THROW(io::parse_string("mesh 4 4\nlink 3 0 0 ?\n"), io::ParseError);
  EXPECT_THROW(io::parse_string("mesh 4 4\nlink 3 0 7 +\n"), io::ParseError);
  // Link off the mesh edge.
  EXPECT_THROW(io::parse_string("mesh 4 4\nlink 3 0 0 + x\n"), io::ParseError);
}

TEST(IoRoundTrip, RandomFaultSetsSurvive) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const MeshShape shape = MeshShape::cube(3, 6);
    Rng rng(seed);
    FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
    faults.add_link(Point{1, 1, 1}, 2, Dir::Pos);
    faults.add_directed_link(Point{3, 3, 3}, 0, Dir::Neg);
    std::vector<NodeId> lambs{0, 5, 7};

    const std::string text = io::write_string(shape, faults, &lambs);
    const io::Document doc = io::parse_string(text);
    EXPECT_EQ(*doc.shape, shape);
    EXPECT_EQ(doc.faults->node_faults(), faults.node_faults());
    EXPECT_EQ(doc.faults->num_link_faults(), faults.num_link_faults());
    EXPECT_EQ(doc.lambs, lambs);
    // Directionality preserved.
    EXPECT_TRUE(doc.faults->link_faulty(Point{3, 3, 3}, 0, Dir::Neg));
    EXPECT_FALSE(doc.faults->link_faulty(Point{2, 3, 3}, 0, Dir::Pos));
  }
}

TEST(IoRoundTrip, TorusSurvives) {
  const MeshShape shape = MeshShape::torus({4, 4});
  FaultSet faults(shape);
  faults.add_link(Point{3, 0}, 0, Dir::Pos);  // wrap link
  const io::Document doc = io::parse_string(io::write_string(shape, faults));
  EXPECT_TRUE(doc.shape->wraps());
  EXPECT_TRUE(doc.faults->link_faulty(Point{3, 0}, 0, Dir::Pos));
  EXPECT_TRUE(doc.faults->link_faulty(Point{0, 0}, 0, Dir::Neg));
}

TEST(IoGeometry, ParsesMeshAndTorus) {
  EXPECT_EQ(io::parse_geometry("32x32x32").to_string(), "M3(32x32x32)");
  EXPECT_EQ(io::parse_geometry("8x8t").to_string(), "T2(8x8)");
  EXPECT_EQ(io::parse_geometry("16").to_string(), "M1(16)");
}

TEST(IoGeometry, RejectsGarbage) {
  EXPECT_THROW(io::parse_geometry(""), std::invalid_argument);
  EXPECT_THROW(io::parse_geometry("axb"), std::invalid_argument);
  EXPECT_THROW(io::parse_geometry("4x1"), std::invalid_argument);
}

TEST(IoFile, MissingFileThrows) {
  EXPECT_THROW(io::parse_file("/nonexistent/path.lamb"), std::runtime_error);
}

TEST(IoFile, UnwritableFileThrows) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const MeshShape shape = MeshShape::cube(2, 4);
  EXPECT_THROW(io::write_file("/dev/full", shape, FaultSet(shape)),
               std::runtime_error);
}

}  // namespace
}  // namespace lamb
