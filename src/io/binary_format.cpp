#include "io/binary_format.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "manager/machine_manager.hpp"
#include "mesh/fault_set.hpp"
#include "support/crc32c.hpp"

namespace lamb::io {

namespace {

// Decoded meshes are bounded so hostile headers cannot demand absurd
// allocations: each width and the node count must stay reasonable.
constexpr std::int64_t kMaxDecodedWidth = std::int64_t{1} << 20;
constexpr std::int64_t kMaxDecodedNodes = std::int64_t{1} << 31;

}  // namespace

const char* load_error_code_name(LoadError::Code code) {
  switch (code) {
    case LoadError::Code::kNone: return "ok";
    case LoadError::Code::kTruncated: return "truncated";
    case LoadError::Code::kBadMagic: return "bad-magic";
    case LoadError::Code::kBadCrc: return "bad-crc";
    case LoadError::Code::kBadVersion: return "version-unknown";
    case LoadError::Code::kMalformed: return "malformed";
    case LoadError::Code::kIo: return "io-error";
  }
  return "unknown";
}

std::string LoadError::to_string() const {
  if (ok()) return "ok";
  std::string out = load_error_code_name(code);
  out += " at byte " + std::to_string(offset);
  if (!detail.empty()) out += ": " + detail;
  return out;
}

// ------------------------------------------------------------ ByteWriter

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s);
}

// ------------------------------------------------------------ ByteReader

bool ByteReader::take(std::size_t n, const char** out) {
  if (!ok()) return false;
  if (pos_ + n > data_.size()) {
    return fail(LoadError::Code::kTruncated,
                "need " + std::to_string(n) + " bytes, have " +
                    std::to_string(data_.size() - pos_));
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::fail(LoadError::Code code, std::string detail) {
  if (ok()) {
    err_.code = code;
    err_.offset = pos_;
    err_.detail = std::move(detail);
  }
  return false;
}

bool ByteReader::u8(std::uint8_t* v) {
  const char* p = nullptr;
  if (!take(1, &p)) return false;
  *v = static_cast<std::uint8_t>(*p);
  return true;
}

bool ByteReader::u16(std::uint16_t* v) {
  const char* p = nullptr;
  if (!take(2, &p)) return false;
  *v = 0;
  for (int i = 0; i < 2; ++i) {
    *v = static_cast<std::uint16_t>(
        *v | static_cast<std::uint16_t>(static_cast<unsigned char>(p[i]))
                 << (8 * i));
  }
  return true;
}

bool ByteReader::u32(std::uint32_t* v) {
  const char* p = nullptr;
  if (!take(4, &p)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
          << (8 * i);
  }
  return true;
}

bool ByteReader::u64(std::uint64_t* v) {
  const char* p = nullptr;
  if (!take(8, &p)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
          << (8 * i);
  }
  return true;
}

bool ByteReader::i32(std::int32_t* v) {
  std::uint32_t u = 0;
  if (!u32(&u)) return false;
  *v = static_cast<std::int32_t>(u);
  return true;
}

bool ByteReader::i64(std::int64_t* v) {
  std::uint64_t u = 0;
  if (!u64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool ByteReader::f64(double* v) {
  std::uint64_t u = 0;
  if (!u64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool ByteReader::str(std::string* s, std::uint64_t max_len) {
  std::uint32_t len = 0;
  if (!u32(&len)) return false;
  if (len > max_len) {
    return fail(LoadError::Code::kMalformed,
                "string length " + std::to_string(len) + " exceeds cap");
  }
  const char* p = nullptr;
  if (!take(len, &p)) return false;
  s->assign(p, len);
  return true;
}

bool ByteReader::count(std::uint64_t* n, std::uint64_t min_elem_bytes) {
  if (!u64(n)) return false;
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (*n > remaining() / min_elem_bytes) {
    return fail(LoadError::Code::kTruncated,
                "count " + std::to_string(*n) +
                    " exceeds the remaining byte budget");
  }
  return true;
}

bool ByteReader::expect_end() {
  if (!ok()) return false;
  if (remaining() != 0) {
    return fail(LoadError::Code::kMalformed,
                std::to_string(remaining()) + " trailing bytes");
  }
  return true;
}

// ---------------------------------------------------------------- codecs

void encode(ByteWriter& w, const MeshShape& shape) {
  w.u8(shape.wraps() ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(shape.dim()));
  for (int j = 0; j < shape.dim(); ++j) w.i32(shape.width(j));
}

bool decode(ByteReader& r, std::unique_ptr<MeshShape>* out) {
  std::uint8_t wraps = 0;
  std::uint8_t dim = 0;
  if (!r.u8(&wraps) || !r.u8(&dim)) return false;
  if (wraps > 1) return r.fail(LoadError::Code::kMalformed, "bad wrap flag");
  if (dim < 1 || dim > kMaxDim) {
    return r.fail(LoadError::Code::kMalformed,
                  "mesh dimension " + std::to_string(dim) + " out of [1, " +
                      std::to_string(kMaxDim) + "]");
  }
  std::vector<Coord> widths(dim);
  std::int64_t nodes = 1;
  for (int j = 0; j < dim; ++j) {
    std::int32_t width = 0;
    if (!r.i32(&width)) return false;
    if (width < 2 || width > kMaxDecodedWidth) {
      return r.fail(LoadError::Code::kMalformed,
                    "mesh width " + std::to_string(width) + " out of range");
    }
    widths[static_cast<std::size_t>(j)] = width;
    // Checked after every multiply, so the running product stays far from
    // int64 overflow (<= 2^31 * 2^20).
    nodes *= width;
    if (nodes > kMaxDecodedNodes) {
      return r.fail(LoadError::Code::kMalformed, "mesh too large to decode");
    }
  }
  *out = std::make_unique<MeshShape>(wraps ? MeshShape::torus(widths)
                                           : MeshShape::mesh(widths));
  return true;
}

void encode(ByteWriter& w, const Point& p, int dim) {
  for (int j = 0; j < dim; ++j) w.i32(p[j]);
}

bool decode(ByteReader& r, const MeshShape& shape, Point* out) {
  Point p;
  for (int j = 0; j < shape.dim(); ++j) {
    std::int32_t c = 0;
    if (!r.i32(&c)) return false;
    p[j] = c;
  }
  if (!shape.in_bounds(p)) {
    return r.fail(LoadError::Code::kMalformed, "point out of bounds");
  }
  *out = p;
  return true;
}

void encode_nodes(ByteWriter& w, const std::vector<NodeId>& nodes) {
  w.u64(nodes.size());
  for (NodeId id : nodes) w.i64(id);
}

bool decode_nodes(ByteReader& r, const MeshShape& shape,
                  std::vector<NodeId>* out) {
  std::uint64_t n = 0;
  if (!r.count(&n, 8)) return false;
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  NodeId prev = -1;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t id = 0;
    if (!r.i64(&id)) return false;
    if (id < 0 || id >= shape.size()) {
      return r.fail(LoadError::Code::kMalformed,
                    "node id " + std::to_string(id) + " out of range");
    }
    if (id <= prev) {
      return r.fail(LoadError::Code::kMalformed,
                    "node list not sorted/unique");
    }
    prev = id;
    nodes.push_back(id);
  }
  *out = std::move(nodes);
  return true;
}

void encode(ByteWriter& w, const DimOrder& order) {
  w.u8(static_cast<std::uint8_t>(order.dim()));
  for (int t = 0; t < order.dim(); ++t) {
    w.u8(static_cast<std::uint8_t>(order.at(t)));
  }
}

bool decode(ByteReader& r, int dim, DimOrder* out) {
  std::uint8_t d = 0;
  if (!r.u8(&d)) return false;
  if (d != dim) {
    return r.fail(LoadError::Code::kMalformed, "order dimension mismatch");
  }
  std::vector<int> perm(d);
  for (int t = 0; t < d; ++t) {
    std::uint8_t v = 0;
    if (!r.u8(&v)) return false;
    perm[static_cast<std::size_t>(t)] = v;
  }
  try {
    *out = DimOrder(std::move(perm));
  } catch (const std::invalid_argument&) {
    return r.fail(LoadError::Code::kMalformed, "not a dimension permutation");
  }
  return true;
}

void encode(ByteWriter& w, const MultiRoundOrder& orders) {
  w.u32(static_cast<std::uint32_t>(orders.size()));
  for (const DimOrder& order : orders) encode(w, order);
}

bool decode(ByteReader& r, int dim, MultiRoundOrder* out) {
  std::uint32_t rounds = 0;
  if (!r.u32(&rounds)) return false;
  if (rounds > 64) {
    return r.fail(LoadError::Code::kMalformed, "round count out of range");
  }
  MultiRoundOrder orders;
  orders.reserve(rounds);
  for (std::uint32_t k = 0; k < rounds; ++k) {
    DimOrder order = DimOrder::ascending(dim);
    if (!decode(r, dim, &order)) return false;
    orders.push_back(std::move(order));
  }
  *out = std::move(orders);
  return true;
}

void encode(ByteWriter& w, const manager::EpochReport& report) {
  w.i32(report.epoch);
  w.i64(report.new_node_faults);
  w.i64(report.new_link_faults);
  w.i64(report.total_faults);
  w.i64(report.lambs_total);
  w.i64(report.lambs_new);
  w.i64(report.survivors);
  w.f64(report.survivor_value);
  w.f64(report.solve_seconds);
  w.u8(static_cast<std::uint8_t>(report.solve_status));
  w.i32(report.rounds);
  w.i32(report.solve_escalations);
  w.i64(report.uncovered_pairs);
  w.f64(report.partition_seconds);
  w.f64(report.matrices_seconds);
  w.f64(report.cover_seconds);
  w.i64(report.routes_vended);
  w.i32(report.route_load_max);
  w.f64(report.route_load_mean);
  w.i64(report.route_load_hottest);
  w.u8(report.incremental ? 1 : 0);
  w.i64(report.partition_cells_recomputed);
  w.i64(report.blocks_reused);
  w.i64(report.routes_retained);
  w.i64(report.routes_dropped);
}

bool decode(ByteReader& r, manager::EpochReport* out) {
  manager::EpochReport report;
  std::uint8_t status = 0;
  if (!r.i32(&report.epoch) || !r.i64(&report.new_node_faults) ||
      !r.i64(&report.new_link_faults) || !r.i64(&report.total_faults) ||
      !r.i64(&report.lambs_total) || !r.i64(&report.lambs_new) ||
      !r.i64(&report.survivors) || !r.f64(&report.survivor_value) ||
      !r.f64(&report.solve_seconds) || !r.u8(&status) ||
      !r.i32(&report.rounds) || !r.i32(&report.solve_escalations) ||
      !r.i64(&report.uncovered_pairs) || !r.f64(&report.partition_seconds) ||
      !r.f64(&report.matrices_seconds) || !r.f64(&report.cover_seconds) ||
      !r.i64(&report.routes_vended) || !r.i32(&report.route_load_max) ||
      !r.f64(&report.route_load_mean) ||
      !r.i64(&report.route_load_hottest)) {
    return false;
  }
  std::uint8_t incremental = 0;
  if (!r.u8(&incremental) || !r.i64(&report.partition_cells_recomputed) ||
      !r.i64(&report.blocks_reused) || !r.i64(&report.routes_retained) ||
      !r.i64(&report.routes_dropped)) {
    return false;
  }
  report.incremental = incremental != 0;
  if (status > static_cast<std::uint8_t>(SolveStatus::kUncovered)) {
    return r.fail(LoadError::Code::kMalformed, "bad solve status");
  }
  report.solve_status = static_cast<SolveStatus>(status);
  *out = report;
  return true;
}

namespace {

void encode_links(ByteWriter& w, const std::vector<LinkFault>& links,
                  int dim) {
  w.u64(links.size());
  for (const LinkFault& lf : links) {
    encode(w, lf.from, dim);
    w.i32(lf.dim);
    w.u8(lf.dir == Dir::Pos ? 1 : 0);
    w.u8(lf.bidirectional ? 1 : 0);
  }
}

bool decode_links(ByteReader& r, const MeshShape& shape,
                  std::vector<LinkFault>* out) {
  std::uint64_t link_count = 0;
  if (!r.count(&link_count, 4ull * static_cast<std::uint64_t>(shape.dim()) +
                                4 + 2)) {
    return false;
  }
  std::vector<LinkFault> links;
  for (std::uint64_t i = 0; i < link_count; ++i) {
    LinkFault lf;
    std::uint8_t dir = 0;
    std::uint8_t bidir = 0;
    if (!decode(r, shape, &lf.from)) return false;
    if (!r.i32(&lf.dim) || !r.u8(&dir) || !r.u8(&bidir)) return false;
    if (lf.dim < 0 || lf.dim >= shape.dim() || dir > 1 || bidir > 1) {
      return r.fail(LoadError::Code::kMalformed, "bad link fault fields");
    }
    lf.dir = dir ? Dir::Pos : Dir::Neg;
    lf.bidirectional = bidir != 0;
    Point to;
    if (!shape.neighbor(lf.from, lf.dim, lf.dir, &to)) {
      return r.fail(LoadError::Code::kMalformed,
                    "link fault leaves the mesh");
    }
    links.push_back(lf);
  }
  *out = std::move(links);
  return true;
}

}  // namespace

void encode(ByteWriter& w, const manager::Checkpoint& checkpoint, int dim) {
  w.i32(checkpoint.epoch);
  encode_nodes(w, checkpoint.node_faults);
  encode_links(w, checkpoint.link_faults, dim);
  encode_nodes(w, checkpoint.lambs);
  w.u64(checkpoint.values.size());
  for (double v : checkpoint.values) w.f64(v);
  w.u64(checkpoint.history.size());
  for (const manager::EpochReport& report : checkpoint.history) {
    encode(w, report);
  }
  encode(w, checkpoint.orders);
  w.u64(checkpoint.route_load.size());
  for (std::int32_t c : checkpoint.route_load) w.i32(c);
  w.i64(checkpoint.routes_vended);
  w.u8(checkpoint.pending ? 1 : 0);
  encode_nodes(w, checkpoint.pending_node_faults);
  encode_links(w, checkpoint.pending_link_faults, dim);
}

bool decode(ByteReader& r, const MeshShape& shape,
            manager::Checkpoint* out) {
  manager::Checkpoint cp;
  if (!r.i32(&cp.epoch)) return false;
  if (cp.epoch < 0) {
    return r.fail(LoadError::Code::kMalformed, "negative epoch");
  }
  if (!decode_nodes(r, shape, &cp.node_faults) ||
      !decode_links(r, shape, &cp.link_faults) ||
      !decode_nodes(r, shape, &cp.lambs)) {
    return false;
  }
  std::uint64_t value_count = 0;
  if (!r.count(&value_count, 8)) return false;
  if (static_cast<std::int64_t>(value_count) != shape.size()) {
    return r.fail(LoadError::Code::kMalformed,
                  "value vector does not match the mesh size");
  }
  cp.values.resize(value_count);
  for (double& v : cp.values) {
    if (!r.f64(&v)) return false;
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      return r.fail(LoadError::Code::kMalformed,
                    "node value outside [0, 1]");
    }
  }
  std::uint64_t history_count = 0;
  if (!r.count(&history_count, 4)) return false;
  cp.history.reserve(history_count);
  for (std::uint64_t i = 0; i < history_count; ++i) {
    manager::EpochReport report;
    if (!decode(r, &report)) return false;
    cp.history.push_back(report);
  }
  if (!decode(r, shape.dim(), &cp.orders)) return false;
  std::uint64_t load_count = 0;
  if (!r.count(&load_count, 4)) return false;
  if (load_count != 0 &&
      static_cast<std::int64_t>(load_count) != shape.size()) {
    return r.fail(LoadError::Code::kMalformed,
                  "route-load vector does not match the mesh size");
  }
  cp.route_load.resize(load_count);
  for (std::int32_t& c : cp.route_load) {
    if (!r.i32(&c)) return false;
    if (c < 0) {
      return r.fail(LoadError::Code::kMalformed, "negative route load");
    }
  }
  if (!r.i64(&cp.routes_vended)) return false;
  if (cp.routes_vended < 0) {
    return r.fail(LoadError::Code::kMalformed, "negative routes_vended");
  }
  std::uint8_t pending = 0;
  if (!r.u8(&pending)) return false;
  if (pending > 1) {
    return r.fail(LoadError::Code::kMalformed, "bad pending flag");
  }
  cp.pending = pending != 0;
  if (!decode_nodes(r, shape, &cp.pending_node_faults) ||
      !decode_links(r, shape, &cp.pending_link_faults)) {
    return false;
  }
  if (!cp.pending &&
      (!cp.pending_node_faults.empty() || !cp.pending_link_faults.empty())) {
    return r.fail(LoadError::Code::kMalformed,
                  "pending faults without the pending flag");
  }
  *out = std::move(cp);
  return true;
}

// ------------------------------------------------- sealed file container

std::string seal(const char* magic8, std::uint32_t version,
                 std::string_view payload) {
  ByteWriter w;
  w.bytes(std::string_view(magic8, kMagicSize));
  w.u32(version);
  w.u64(payload.size());
  w.u32(support::crc32c(payload));
  w.bytes(payload);
  return w.take();
}

LoadError unseal(std::string_view file, const char* magic8,
                 std::uint32_t version, std::string_view* payload) {
  LoadError err;
  const auto fail = [&err](LoadError::Code code, std::uint64_t offset,
                           std::string detail) {
    err.code = code;
    err.offset = offset;
    err.detail = std::move(detail);
    return err;
  };
  if (file.size() < kMagicSize) {
    return fail(LoadError::Code::kTruncated, file.size(),
                "file shorter than the magic");
  }
  if (file.substr(0, kMagicSize) != std::string_view(magic8, kMagicSize)) {
    return fail(LoadError::Code::kBadMagic, 0, "magic mismatch");
  }
  ByteReader r(file.substr(kMagicSize));
  std::uint32_t file_version = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
  if (!r.u32(&file_version) || !r.u64(&payload_len) || !r.u32(&payload_crc)) {
    return fail(LoadError::Code::kTruncated, kMagicSize + r.pos(),
                "header truncated");
  }
  if (file_version != version) {
    return fail(LoadError::Code::kBadVersion, kMagicSize,
                "file version " + std::to_string(file_version) +
                    ", expected " + std::to_string(version));
  }
  const std::string_view body = file.substr(kSealHeaderSize);
  if (payload_len > body.size()) {
    return fail(LoadError::Code::kTruncated, kSealHeaderSize,
                "payload needs " + std::to_string(payload_len) +
                    " bytes, file has " + std::to_string(body.size()));
  }
  if (payload_len < body.size()) {
    return fail(LoadError::Code::kMalformed, kSealHeaderSize + payload_len,
                "trailing bytes after the payload");
  }
  if (support::crc32c(body) != payload_crc) {
    return fail(LoadError::Code::kBadCrc, kSealHeaderSize,
                "payload checksum mismatch");
  }
  *payload = body;
  return err;
}

// ------------------------------------------------- journal record frames

void append_record_frame(std::string* out, std::string_view payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(support::crc32c(payload));
  w.bytes(payload);
  out->append(w.data());
}

RecordScan scan_records(std::string_view data) {
  // Records longer than this are assumed corrupt length fields, not real
  // frames (no journal payload in this codebase comes near it).
  constexpr std::uint32_t kMaxRecordBytes = 1u << 26;
  RecordScan scan;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    ByteReader r(data.substr(pos));
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!r.u32(&len) || !r.u32(&crc)) {
      scan.tail.code = LoadError::Code::kTruncated;
      scan.tail.offset = pos;
      scan.tail.detail = "torn record header";
      break;
    }
    if (len > kMaxRecordBytes) {
      scan.tail.code = LoadError::Code::kMalformed;
      scan.tail.offset = pos;
      scan.tail.detail = "record length " + std::to_string(len) +
                         " exceeds cap";
      break;
    }
    if (8ull + len > data.size() - pos) {
      scan.tail.code = LoadError::Code::kTruncated;
      scan.tail.offset = pos;
      scan.tail.detail = "torn record payload";
      break;
    }
    const std::string_view payload = data.substr(pos + 8, len);
    if (support::crc32c(payload) != crc) {
      scan.tail.code = LoadError::Code::kBadCrc;
      scan.tail.offset = pos;
      scan.tail.detail = "record checksum mismatch";
      break;
    }
    scan.payloads.emplace_back(payload);
    pos += 8ull + len;
    scan.valid_prefix = pos;
  }
  return scan;
}

}  // namespace lamb::io
