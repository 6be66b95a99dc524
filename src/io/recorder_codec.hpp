// Offline decoder for flight-recorder artifacts (obs/recorder.hpp):
//
//   "LAMBFREC"  sealed dump written by FlightRecorder::dump() — the
//               standard magic|version|len|crc container around a
//               (reason, count, events[]) payload.
//   "LAMBRING"  live mmap ring file. No CRC — it is mutated in place up
//               to the instant of death — so decoding validates each
//               slot's seqlock stamp instead and skips torn slots.
//
// decode_flight_file() sniffs the magic and dispatches; this is what
// tools/lambmesh_blackbox (through load_flight_file()) and lambmesh_fsck
// use. Lives in io/ (not
// obs/) because it depends on the ByteReader / LoadError machinery and
// io already links obs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "io/binary_format.hpp"
#include "obs/recorder.hpp"

namespace lamb::io {

struct FlightDump {
  // "dump" (LAMBFREC) or "ring" (LAMBRING).
  std::string kind;
  // Dump reason (LAMBFREC only; kManual for ring files).
  obs::DumpReason reason = obs::DumpReason::kManual;
  std::size_t ring_capacity = 0;  // LAMBRING only
  // Valid events, ascending seq. For ring files torn/never-written
  // slots are skipped and counted in `torn_slots`.
  std::vector<obs::FlightEvent> events;
  std::size_t torn_slots = 0;
};

// Decode from bytes already in memory. On failure returns the error and
// leaves *out untouched.
LoadError decode_flight_dump(std::string_view bytes, FlightDump* out);
LoadError decode_flight_ring(std::string_view bytes, FlightDump* out);

// Dispatches on the magic: a LAMBRING ring, else a sealed dump.
LoadError decode_flight_file(std::string_view bytes, FlightDump* out);
// Reads the file and decodes it with decode_flight_file().
LoadError load_flight_file(const std::string& path, FlightDump* out);

// True when the first 8 bytes match either flight magic (used by
// lambmesh_fsck to route files to this decoder).
bool looks_like_flight_file(std::string_view bytes);

}  // namespace lamb::io
