// Tests for the binary snapshot/journal codec: CRC32C vectors, typed
// round-trips, sealed-container framing, record scans, and — most
// importantly — that hostile bytes (truncations, bit flips, count
// bombs) always come back as a structured LoadError, never a throw.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "io/binary_format.hpp"
#include "manager/machine_manager.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/crc32c.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

using io::ByteReader;
using io::ByteWriter;
using io::LoadError;

TEST(Crc32c, KnownVectors) {
  // RFC 3720 appendix B.4 check value for "123456789".
  EXPECT_EQ(support::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(support::crc32c(""), 0u);
  // Chaining partial computations matches one pass over the whole.
  EXPECT_EQ(support::crc32c("56789", support::crc32c("1234")),
            support::crc32c("123456789"));
}

TEST(ByteReader, TruncationIsStickyAndNeverThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data());
  std::uint64_t v64 = 0;
  EXPECT_FALSE(r.u64(&v64));  // only 4 bytes available
  EXPECT_EQ(r.error().code, LoadError::Code::kTruncated);
  std::uint8_t v8 = 0;
  EXPECT_FALSE(r.u8(&v8));  // sticky: later reads keep failing
  EXPECT_EQ(r.error().code, LoadError::Code::kTruncated);
}

TEST(ByteReader, CountBombFailsBeforeAllocation) {
  const MeshShape shape = MeshShape::cube(2, 4);
  ByteWriter w;
  w.u64(std::uint64_t{1} << 60);  // claims 2^60 node ids follow
  ByteReader r(w.data());
  std::vector<NodeId> nodes;
  EXPECT_FALSE(io::decode_nodes(r, shape, &nodes));
  EXPECT_EQ(r.error().code, LoadError::Code::kTruncated);
}

TEST(BinaryFormat, MeshRoundtrip) {
  for (const MeshShape& shape :
       {MeshShape::mesh({4, 5, 6}), MeshShape::torus({3, 7}),
        MeshShape::hypercube(5)}) {
    ByteWriter w;
    io::encode(w, shape);
    ByteReader r(w.data());
    std::unique_ptr<MeshShape> out;
    ASSERT_TRUE(io::decode(r, &out));
    EXPECT_TRUE(r.expect_end());
    EXPECT_EQ(*out, shape);
  }
}

TEST(BinaryFormat, DimOrderRejectsNonPermutation) {
  ByteWriter w;
  w.u8(2);
  w.u8(0);
  w.u8(0);  // {0, 0} is not a permutation of {0, 1}
  ByteReader r(w.data());
  DimOrder order = DimOrder::ascending(2);
  EXPECT_FALSE(io::decode(r, 2, &order));
  EXPECT_EQ(r.error().code, LoadError::Code::kMalformed);
}

manager::Checkpoint sample_checkpoint(const MeshShape& shape) {
  manager::MachineManager mgr(shape);
  mgr.reconfigure();
  mgr.report_node_fault(NodeId{7});
  mgr.report_link_fault(shape.point(0), 0, Dir::Pos);
  mgr.degrade_node(NodeId{11}, 0.25);
  mgr.reconfigure();
  Rng rng(5);
  const auto survivors = mgr.survivors();
  for (int i = 0; i < 6; ++i) {
    mgr.route(survivors[0], survivors[survivors.size() - 1 - i], rng);
  }
  return mgr.checkpoint();
}

TEST(BinaryFormat, CheckpointRoundtrip) {
  const MeshShape shape = MeshShape::cube(2, 6);
  manager::Checkpoint cp = sample_checkpoint(shape);
  // The manager reports links both ways; the codec also carries a link
  // dead in one direction only.
  FaultSet directed(shape);
  directed.add_directed_link(Point{2, 2}, 1, Dir::Neg);
  cp.link_faults.push_back(directed.link_faults().front());
  ByteWriter w;
  io::encode(w, cp, shape.dim());
  ByteReader r(w.data());
  manager::Checkpoint out;
  ASSERT_TRUE(io::decode(r, shape, &out)) << r.error().to_string();
  EXPECT_TRUE(r.expect_end());
  EXPECT_EQ(out.epoch, cp.epoch);
  EXPECT_EQ(out.node_faults, cp.node_faults);
  EXPECT_EQ(out.link_faults, cp.link_faults);
  FaultSet links(shape);
  for (const LinkFault& lf : out.link_faults) links.add(lf);
  EXPECT_TRUE(links.link_faulty(Point{0, 0}, 0, Dir::Pos));
  EXPECT_TRUE(links.link_faulty(Point{2, 2}, 1, Dir::Neg));
  EXPECT_FALSE(links.link_faulty(Point{2, 1}, 1, Dir::Pos));
  EXPECT_EQ(out.lambs, cp.lambs);
  EXPECT_EQ(out.values, cp.values);
  EXPECT_EQ(out.route_load, cp.route_load);
  EXPECT_EQ(out.routes_vended, cp.routes_vended);
  EXPECT_EQ(out.pending, cp.pending);
  ASSERT_EQ(out.history.size(), cp.history.size());
  for (std::size_t i = 0; i < cp.history.size(); ++i) {
    EXPECT_EQ(out.history[i].epoch, cp.history[i].epoch);
    EXPECT_EQ(out.history[i].total_faults, cp.history[i].total_faults);
    EXPECT_EQ(out.history[i].lambs_total, cp.history[i].lambs_total);
    EXPECT_EQ(out.history[i].solve_status, cp.history[i].solve_status);
    EXPECT_EQ(out.history[i].routes_vended, cp.history[i].routes_vended);
  }
}

// The crash-safety property the whole layer rests on: no prefix and no
// single-bit corruption of a valid payload may throw. Each must come
// back as a clean LoadError (or, for lucky corruptions, decode).
TEST(BinaryFormat, HostileBytesNeverThrow) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const manager::Checkpoint cp = sample_checkpoint(shape);
  ByteWriter w;
  io::encode(w, shape);
  io::encode(w, cp, shape.dim());
  const std::string payload = w.take();

  auto try_decode = [](std::string_view bytes) {
    ByteReader r(bytes);
    std::unique_ptr<MeshShape> s;
    manager::Checkpoint out;
    if (io::decode(r, &s) && io::decode(r, *s, &out)) {
      r.expect_end();
    }
    return r.error();
  };

  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    ASSERT_NO_THROW(try_decode(std::string_view(payload).substr(0, cut)))
        << "truncation at " << cut;
  }
  Rng rng(123);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = payload;
    const std::size_t at = rng.below(mutated.size());
    mutated[at] = static_cast<char>(
        mutated[at] ^ (1 << rng.below(8)));
    ASSERT_NO_THROW(try_decode(mutated)) << "bit flip at " << at;
  }
}

TEST(Seal, FramingErrorsAreClassified) {
  const std::string file = io::seal("TESTMAGC", 3, "payload-bytes");
  std::string_view payload;

  EXPECT_TRUE(io::unseal(file, "TESTMAGC", 3, &payload).ok());
  EXPECT_EQ(payload, "payload-bytes");

  EXPECT_EQ(io::unseal(file, "OTHRMAGC", 3, &payload).code,
            LoadError::Code::kBadMagic);
  EXPECT_EQ(io::unseal(file, "TESTMAGC", 4, &payload).code,
            LoadError::Code::kBadVersion);
  EXPECT_EQ(io::unseal(file.substr(0, 5), "TESTMAGC", 3, &payload).code,
            LoadError::Code::kTruncated);
  EXPECT_EQ(
      io::unseal(file.substr(0, file.size() - 4), "TESTMAGC", 3, &payload)
          .code,
      LoadError::Code::kTruncated);

  std::string flipped = file;
  flipped[io::kSealHeaderSize + 2] ^= 0x10;
  EXPECT_EQ(io::unseal(flipped, "TESTMAGC", 3, &payload).code,
            LoadError::Code::kBadCrc);

  EXPECT_EQ(io::unseal(file + "junk", "TESTMAGC", 3, &payload).code,
            LoadError::Code::kMalformed);
}

TEST(RecordScan, TornTailStopsAtRecordBoundary) {
  std::string data;
  io::append_record_frame(&data, "first");
  const std::uint64_t first_end = data.size();
  io::append_record_frame(&data, "second");
  io::append_record_frame(&data, "third");

  {
    const io::RecordScan scan = io::scan_records(data);
    ASSERT_EQ(scan.payloads.size(), 3u);
    EXPECT_EQ(scan.payloads[0], "first");
    EXPECT_EQ(scan.payloads[2], "third");
    EXPECT_TRUE(scan.tail.ok());
    EXPECT_EQ(scan.valid_prefix, data.size());
  }
  {
    // Torn mid-second-payload: only the first record survives.
    const io::RecordScan scan =
        io::scan_records(std::string_view(data).substr(0, first_end + 10));
    ASSERT_EQ(scan.payloads.size(), 1u);
    EXPECT_EQ(scan.valid_prefix, first_end);
    EXPECT_EQ(scan.tail.code, LoadError::Code::kTruncated);
  }
  {
    // Bit flip in the second payload: CRC stops the scan there.
    std::string flipped = data;
    flipped[first_end + 9] ^= 0x01;
    const io::RecordScan scan = io::scan_records(flipped);
    ASSERT_EQ(scan.payloads.size(), 1u);
    EXPECT_EQ(scan.valid_prefix, first_end);
    EXPECT_EQ(scan.tail.code, LoadError::Code::kBadCrc);
  }
}

}  // namespace
}  // namespace lamb
