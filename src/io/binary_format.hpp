// Versioned, checksummed binary codec for the durable-state layer
// (docs/FORMAT.md "Binary snapshot / journal format").
//
// Design rules, in priority order:
//
//   1. Hostile bytes never cause UB or an exception. Every decoder
//      returns a structured LoadError (truncated / bad-magic / bad-crc /
//      version-unknown / malformed) and leaves the output untouched on
//      failure; counts are validated against the remaining byte budget
//      before any allocation, so a corrupt length field cannot OOM.
//   2. Explicit layout: all integers are little-endian fixed-width,
//      doubles are IEEE-754 bit patterns, containers are length-prefixed.
//      A file is readable on any host, independent of native endianness.
//   3. Versioned and checksummed framing: sealed containers carry an
//      8-byte magic, a format version, and a CRC32C over the payload;
//      journal records are individually length-prefixed and CRC'd so a
//      torn tail is detected at the exact record boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb::manager {
struct EpochReport;
struct Checkpoint;
}  // namespace lamb::manager

namespace lamb::io {

// Why a load failed. kNone means success; everything else names the
// first defect encountered (decoding stops there).
struct LoadError {
  enum class Code : std::uint8_t {
    kNone = 0,
    kTruncated,   // ran out of bytes mid-structure (torn write, short read)
    kBadMagic,    // not one of our files
    kBadCrc,      // framing intact but the payload bits are damaged
    kBadVersion,  // a future (or corrupt) format version
    kMalformed,   // bytes decode but violate a semantic invariant
    kIo,          // the OS call itself failed (open/read/write/rename)
  };

  Code code = Code::kNone;
  std::uint64_t offset = 0;  // byte position where decoding stopped
  std::string detail;

  bool ok() const { return code == Code::kNone; }
  std::string to_string() const;
};

const char* load_error_code_name(LoadError::Code code);

// Little-endian byte sink. Append-only; take() moves the buffer out.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void bytes(std::string_view b) { buf_.append(b.data(), b.size()); }
  void str(std::string_view s);  // u32 length prefix + bytes

  std::size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Little-endian byte source over a borrowed buffer. The first failure
// sticks: every later read fails fast, so decoders can chain reads and
// check ok() once. No method ever throws.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool i32(std::int32_t* v);
  bool i64(std::int64_t* v);
  bool f64(double* v);
  bool str(std::string* s, std::uint64_t max_len = 1 << 20);

  // Reads a u64 element count and validates count * min_elem_bytes
  // against the remaining bytes, so hostile counts fail before any
  // allocation happens.
  bool count(std::uint64_t* n, std::uint64_t min_elem_bytes);

  // Records the failure (first one wins) and returns false.
  bool fail(LoadError::Code code, std::string detail);

  bool ok() const { return err_.code == LoadError::Code::kNone; }
  const LoadError& error() const { return err_; }
  std::uint64_t pos() const { return pos_; }
  std::uint64_t remaining() const { return data_.size() - pos_; }
  // kMalformed unless every byte was consumed.
  bool expect_end();

 private:
  bool take(std::size_t n, const char** out);

  std::string_view data_;
  std::uint64_t pos_ = 0;
  LoadError err_;
};

// ---------------------------------------------------------------- codecs
//
// encode() never fails; decode() returns false with the reason in the
// reader's error(). Decoders that need topology context take the shape.

void encode(ByteWriter& w, const MeshShape& shape);
// The shape is heap-allocated so FaultSet/Document-style internal
// references stay valid when the owner moves.
bool decode(ByteReader& r, std::unique_ptr<MeshShape>* out);

void encode(ByteWriter& w, const Point& p, int dim);
bool decode(ByteReader& r, const MeshShape& shape, Point* out);

// Sorted unique node-id list (lamb sets, predetermined sets).
void encode_nodes(ByteWriter& w, const std::vector<NodeId>& nodes);
bool decode_nodes(ByteReader& r, const MeshShape& shape,
                  std::vector<NodeId>* out);

void encode(ByteWriter& w, const DimOrder& order);
bool decode(ByteReader& r, int dim, DimOrder* out);
void encode(ByteWriter& w, const MultiRoundOrder& orders);
bool decode(ByteReader& r, int dim, MultiRoundOrder* out);

void encode(ByteWriter& w, const manager::EpochReport& report);
bool decode(ByteReader& r, manager::EpochReport* out);

void encode(ByteWriter& w, const manager::Checkpoint& checkpoint, int dim);
bool decode(ByteReader& r, const MeshShape& shape,
            manager::Checkpoint* out);

// ------------------------------------------------- sealed file container
//
// Layout: magic[8] | u32 version | u64 payload_len | u32 payload_crc32c
//         | payload. unseal() points *payload into `file` (no copy).

inline constexpr std::size_t kMagicSize = 8;
inline constexpr std::size_t kSealHeaderSize = kMagicSize + 4 + 8 + 4;

std::string seal(const char* magic8, std::uint32_t version,
                 std::string_view payload);
LoadError unseal(std::string_view file, const char* magic8,
                 std::uint32_t version, std::string_view* payload);

// ------------------------------------------------- journal record frames
//
// Each record: u32 payload_len | u32 payload_crc32c | payload. A scan
// stops at the first frame that is truncated or fails its CRC; the valid
// prefix length is the recovery truncation point.

void append_record_frame(std::string* out, std::string_view payload);

struct RecordScan {
  std::vector<std::string> payloads;
  std::uint64_t valid_prefix = 0;  // bytes consumed by intact records
  LoadError tail;                  // ok() when the scan reached clean EOF
};
RecordScan scan_records(std::string_view data);

}  // namespace lamb::io
