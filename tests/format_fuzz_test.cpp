// Fuzz-style corpus tests for both decoders: every malformed input —
// hand-written nasties and random mutations of valid bytes — must come
// back as the decoder's structured error (ParseError for text,
// LoadError for binary). Any other exception, crash, or hang is a bug
// in the hostile-input contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "io/binary_format.hpp"
#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

// A parse either succeeds or throws ParseError — nothing else.
void expect_clean_text_parse(const std::string& text) {
  try {
    (void)io::parse_string(text);
  } catch (const io::ParseError&) {
    // structured rejection: fine
  }
  // Anything else propagates and fails the test.
}

TEST(TextFormatFuzz, HandWrittenNastyCorpus) {
  const std::vector<std::string> corpus = {
      "",
      "#only a comment\n",
      "mesh\n",
      "mesh 0 0\n",
      "mesh 1 1\n",
      "mesh -4 -4\n",
      "mesh 99999999999 4\n",          // width overflows Coord
      "mesh 4x4\n",                    // geometry syntax in a document
      "mesh 4 4\nmesh 4 4\n",          // duplicate declaration
      "node 1 1\n",                    // fault before the mesh line
      "mesh 4 4\nnode 1\n",            // missing coordinate
      "mesh 4 4\nnode 1 2 3\n",        // trailing coordinate
      "mesh 4 4\nnode 10x 2\n",        // trailing garbage in a number
      "mesh 4 4\nnode 999999999999999999999 0\n",
      "mesh 4 4\nnode 4 4\n",          // out of bounds
      "mesh 4 4\nlink 0 0\n",          // missing dim/dir
      "mesh 4 4\nlink 0 0 2 +\n",      // dimension out of range
      "mesh 4 4\nlink 0 0 -1 +\n",
      "mesh 4 4\nlink 0 0 0 ?\n",      // bad direction
      "mesh 4 4\nlink 3 0 0 +\n",      // leaves the mesh
      "mesh 4 4\nlink 0 0 0 + extra\n",
      "mesh 4 4\nlamb 1 1 junk\n",
      "mesh 4 4\nfrob 1 1\n",          // unknown directive
      std::string(1 << 16, 'a'),       // one huge garbage token
      std::string("mesh 4 4\nnode \x00 1\n", 18),
  };
  for (const std::string& text : corpus) {
    SCOPED_TRACE(text.substr(0, 60));
    ASSERT_NO_FATAL_FAILURE(expect_clean_text_parse(text));
    EXPECT_THROW((void)io::parse_string(text), io::ParseError);
  }
  // Sanity: the happy path still parses.
  const io::Document doc = io::parse_string(
      "mesh 4 4  # comment\nnode 1 1\nlink 0 0 0 +\nlamb 2 2\n");
  EXPECT_EQ(doc.faults->f(), 2);
  EXPECT_EQ(doc.lambs.size(), 1u);
}

TEST(TextFormatFuzz, RandomMutationsNeverEscapeParseError) {
  const std::string seed_doc =
      "mesh 6 6\nnode 1 1\nnode 2 3\nunilink 0 0 1 +\nlink 4 4 0 -\n"
      "lamb 5 5\nlamb 0 5\n";
  Rng rng(424242);
  for (int trial = 0; trial < 600; ++trial) {
    std::string mutated = seed_doc;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.below(4)) {
        case 0:  // flip a byte
          mutated[rng.below(mutated.size())] =
              static_cast<char>(rng.below(256));
          break;
        case 1:  // truncate
          mutated.resize(rng.below(mutated.size() + 1));
          break;
        case 2:  // duplicate a slice
          if (!mutated.empty()) {
            const std::size_t at = rng.below(mutated.size());
            mutated.insert(at, mutated.substr(
                                   at, rng.below(mutated.size() - at) + 1));
          }
          break;
        default:  // inject a hostile token
          mutated.insert(rng.below(mutated.size() + 1),
                         " 99999999999999999999 ");
          break;
      }
      if (mutated.empty()) break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(expect_clean_text_parse(mutated));
  }
}

TEST(TextFormatFuzz, GeometrySpecCorpus) {
  for (const char* bad :
       {"", "x", "8x", "8x8x", "0x4", "-2x4", "4xx4", "99999999999x2",
        "8x8y", "txt", "8 x 8", "1x1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)io::parse_geometry(bad), std::invalid_argument);
  }
  EXPECT_EQ(io::parse_geometry("16x8").size(), 128);
  EXPECT_TRUE(io::parse_geometry("4x4t").wraps());
  EXPECT_TRUE(io::parse_geometry("4x4T").wraps());
  EXPECT_FALSE(io::parse_geometry("9").wraps());
}

// Random byte soup against every binary entry point. The decoders'
// contract is a structured LoadError, so a throw (or sanitizer report)
// here is a broken invariant, whatever the bytes were.
TEST(BinaryFormatFuzz, RandomBytesNeverThrow) {
  Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len = rng.below(512);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));

    std::string_view payload;
    ASSERT_NO_THROW(
        (void)io::unseal(bytes, "LAMBSNAP", 1, &payload));
    ASSERT_NO_THROW((void)io::scan_records(bytes));

    io::ByteReader r(bytes);
    std::unique_ptr<MeshShape> shape;
    manager::Checkpoint checkpoint;
    ASSERT_NO_THROW({
      if (io::decode(r, &shape)) {
        (void)io::decode(r, *shape, &checkpoint);
      }
    });
  }
}

// Mutations of a REAL sealed snapshot reach much deeper decode paths
// than raw byte soup; the contract is the same.
TEST(BinaryFormatFuzz, MutatedSealedSnapshotNeverThrows) {
  const MeshShape shape = MeshShape::cube(2, 5);
  manager::MachineManager mgr(shape);
  mgr.reconfigure();
  mgr.report_node_fault(NodeId{6});
  mgr.reconfigure();
  io::ByteWriter w;
  io::encode(w, shape);
  io::encode(w, mgr.checkpoint(), shape.dim());
  const std::string file = io::seal("LAMBSNAP", 1, w.data());

  Rng rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = file;
    for (int e = 0; e < 3; ++e) {
      mutated[rng.below(mutated.size())] =
          static_cast<char>(rng.below(256));
    }
    if (rng.bernoulli(0.3)) mutated.resize(rng.below(mutated.size() + 1));

    std::string_view payload;
    ASSERT_NO_THROW({
      if (io::unseal(mutated, "LAMBSNAP", 1, &payload).ok()) {
        // CRC collisions are possible in principle; decoding must still
        // hold the no-throw line.
        io::ByteReader r(payload);
        std::unique_ptr<MeshShape> s;
        manager::Checkpoint cp;
        if (io::decode(r, &s)) (void)io::decode(r, *s, &cp);
      }
    });
  }
}

}  // namespace
}  // namespace lamb
