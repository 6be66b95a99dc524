#include "io/recorder_codec.hpp"

#include <algorithm>

#include "io/durable.hpp"

namespace lamb::io {

namespace {

LoadError fail(LoadError::Code code, std::uint64_t offset,
               std::string detail) {
  LoadError err;
  err.code = code;
  err.offset = offset;
  err.detail = std::move(detail);
  return err;
}

bool decode_event_fields(ByteReader& r, obs::FlightEvent* ev) {
  std::uint32_t epoch = 0;
  std::uint16_t type = 0;
  std::uint16_t code = 0;
  const bool ok = r.u64(&ev->t_ns) && r.u32(&epoch) && r.u16(&type) &&
                  r.u16(&code) && r.i64(&ev->a) && r.i64(&ev->b);
  ev->epoch = epoch;
  ev->type = type;
  ev->code = code;
  return ok;
}

}  // namespace

bool looks_like_flight_file(std::string_view bytes) {
  if (bytes.size() < 8) return false;
  const std::string_view magic = bytes.substr(0, 8);
  return magic == std::string_view(obs::kFlightDumpMagic, 8) ||
         magic == std::string_view(obs::kFlightRingMagic, 8);
}

LoadError decode_flight_dump(std::string_view bytes, FlightDump* out) {
  std::string_view payload;
  const LoadError seal_err = unseal(bytes, obs::kFlightDumpMagic,
                                    obs::kFlightFormatVersion, &payload);
  if (!seal_err.ok()) return seal_err;

  ByteReader r(payload);
  std::uint32_t reason = 0;
  std::uint32_t count = 0;
  if (!r.u32(&reason) || !r.u32(&count)) return r.error();
  if (count * obs::kFlightSlotSize != r.remaining()) {
    return fail(LoadError::Code::kMalformed, r.pos(),
                "event count disagrees with payload length");
  }

  FlightDump dump;
  dump.kind = "dump";
  dump.reason = static_cast<obs::DumpReason>(reason);
  dump.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::FlightEvent ev;
    if (!r.u64(&ev.seq) || !decode_event_fields(r, &ev)) return r.error();
    dump.events.push_back(ev);
  }
  *out = std::move(dump);
  return LoadError{};
}

LoadError decode_flight_ring(std::string_view bytes, FlightDump* out) {
  if (bytes.size() < obs::kFlightHeaderSize) {
    return fail(LoadError::Code::kTruncated, bytes.size(),
                "shorter than the ring header");
  }
  if (bytes.substr(0, 8) != std::string_view(obs::kFlightRingMagic, 8)) {
    return fail(LoadError::Code::kBadMagic, 0, "not a LAMBRING file");
  }
  ByteReader header(bytes.substr(8, obs::kFlightHeaderSize - 8));
  std::uint32_t version = 0;
  std::uint32_t slot_size = 0;
  std::uint64_t capacity = 0;
  if (!header.u32(&version) || !header.u32(&slot_size) ||
      !header.u64(&capacity)) {
    return header.error();
  }
  if (version != obs::kFlightFormatVersion) {
    return fail(LoadError::Code::kBadVersion, 8,
                "ring version " + std::to_string(version));
  }
  if (slot_size != obs::kFlightSlotSize) {
    return fail(LoadError::Code::kMalformed, 12,
                "slot size " + std::to_string(slot_size));
  }
  const std::string_view body = bytes.substr(obs::kFlightHeaderSize);
  if (capacity * obs::kFlightSlotSize > body.size()) {
    return fail(LoadError::Code::kTruncated, obs::kFlightHeaderSize,
                "ring body shorter than capacity");
  }

  // The ring has no CRC — it was live until the process died. Each
  // slot self-validates: its stamp encodes seq + 1, and a real seq must
  // land on this physical index (seq % capacity == index). Anything
  // else is a torn or never-written slot and is counted, not trusted.
  FlightDump dump;
  dump.kind = "ring";
  dump.ring_capacity = static_cast<std::size_t>(capacity);
  for (std::uint64_t i = 0; i < capacity; ++i) {
    ByteReader slot(body.substr(i * obs::kFlightSlotSize,
                                obs::kFlightSlotSize));
    std::uint64_t stamp = 0;
    obs::FlightEvent ev;
    if (!slot.u64(&stamp) || !decode_event_fields(slot, &ev)) {
      return slot.error();
    }
    if (stamp == 0) continue;  // never written
    ev.seq = stamp - 1;
    if (ev.seq % capacity != i) {
      ++dump.torn_slots;
      continue;
    }
    dump.events.push_back(ev);
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
              return a.seq < b.seq;
            });
  *out = std::move(dump);
  return LoadError{};
}

LoadError decode_flight_file(std::string_view bytes, FlightDump* out) {
  if (bytes.substr(0, 8) == std::string_view(obs::kFlightRingMagic, 8)) {
    return decode_flight_ring(bytes, out);
  }
  return decode_flight_dump(bytes, out);
}

LoadError load_flight_file(const std::string& path, FlightDump* out) {
  std::string bytes;
  LoadError err;
  if (!read_file_bytes(path, &bytes, &err)) return err;
  return decode_flight_file(bytes, out);
}

}  // namespace lamb::io
