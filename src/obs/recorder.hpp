// Always-on flight recorder: a fixed-size lock-free ring of compact
// binary events covering the control plane's load-bearing moments —
// faults applied, checkpoints, roll-backs, reconfigure begin/end with
// solve status and incremental-reuse stats, route vends, degradation
// rungs, journal/snapshot I/O, watchdog and deadlock declarations.
//
// Design constraints, in order:
//   1. Cheap enough to leave on in production: record() is one relaxed
//      enabled check, one fetch_add to claim a sequence number, a clock
//      read, and six plain stores into a pre-mapped slot. No locks, no
//      allocation, no I/O.
//   2. Crash-evident: with a file backing (LAMBMESH_FLIGHT=<path> or
//      FlightRecorder::open_file) the ring lives in a mmap'd file, so
//      even SIGKILL — which no handler can observe — leaves the last
//      `capacity` events on disk for tools/lambmesh_blackbox.
//   3. Post-mortem ready: dump() serializes the valid tail into a
//      sealed binary container ("LAMBFREC", same 24-byte header layout
//      as io::seal) and is async-signal-safe once armed — the fatal-
//      signal handler, the simulator's deadlock watchdog, and
//      RecoveryDriver's give-up path all dump automatically when a dump
//      destination is configured.
//
// Each slot carries a seqlock-style stamp (seq + 1, written last with
// release ordering); readers and the offline decoder skip torn slots
// instead of misreading them. Events record *observations* only — the
// recorder never influences simulation state, so digests stay
// bit-identical with it enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace lamb::obs {

// Event vocabulary. Values are part of the on-disk format — append only.
enum class FlightEventType : std::uint16_t {
  kNone = 0,
  kRunBegin = 1,          // a=messages submitted, b=max_cycles
  kRunEnd = 2,            // code=1 if deadlocked, a=cycles, b=delivered
  kFaultApplied = 3,      // code=0 node/1 link, a=node id, b=dim*2+dir
  kCheckpoint = 4,        // a=epoch captured
  kRollback = 5,          // a=epoch restored to
  kReconfigureBegin = 6,  // a=pending node faults, b=pending link faults
  kReconfigureEnd = 7,    // code=status | incremental<<8,
                          // a=solve nanoseconds, b=blocks_reused
  kRouteVend = 8,         // code=1 when a route was produced, a=src, b=dst
  kDegradeRung = 9,       // code=SolveStatus, a=rounds, b=uncovered pairs
  kJournalWrite = 10,     // a=record bytes
  kSnapshotWrite = 11,    // a=snapshot bytes
  kWatchdog = 12,         // a=stagnant cycles, b=sim cycle
  kDeadlock = 13,         // a=stagnant cycles, b=sim cycle
  kGiveUp = 14,           // a=messages undelivered, b=attempts
  kEpochBegin = 15,       // a=messages requested
  kEpochEnd = 16,         // code=1 when completed, a=delivered, b=attempts
  kDump = 17,             // code=DumpReason; recorded before dumping
};
const char* flight_event_type_name(FlightEventType type);

enum class DumpReason : std::uint16_t {
  kManual = 0,
  kWatchdog = 1,
  kDeadlock = 2,
  kGiveUp = 3,
  kFatalSignal = 4,
};
const char* dump_reason_name(DumpReason reason);

// The decoded (value-typed) event shared with io/recorder_codec and the
// blackbox tool.
struct FlightEvent {
  std::uint64_t seq = 0;   // global causal order
  std::uint64_t t_ns = 0;  // steady-clock ns since recorder start
  std::uint32_t epoch = 0; // manager epoch current when recorded
  std::uint16_t type = 0;  // FlightEventType
  std::uint16_t code = 0;  // type-specific subcode
  std::int64_t a = 0;
  std::int64_t b = 0;
};

// Writes `ev` as one inline JSON object {"seq", "t_ns", "epoch", "type"
// (decoded name), "code", "a", "b"}: the event record of both /recorder
// and `lambmesh_blackbox --json`.
void write_json(support::JsonWriter& w, const FlightEvent& ev);

// On-disk layout constants, shared with the codec. A live ring file is
// header + capacity slots; each slot is a FlightEvent with the seq field
// replaced by the stamp (seq + 1; 0 = never written).
inline constexpr char kFlightRingMagic[9] = "LAMBRING";
inline constexpr char kFlightDumpMagic[9] = "LAMBFREC";
inline constexpr std::uint32_t kFlightFormatVersion = 1;
inline constexpr std::size_t kFlightHeaderSize = 64;
inline constexpr std::size_t kFlightSlotSize = 40;

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  // In-memory ring (unit tests and the default always-on recorder).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Process-wide recorder. First use reads LAMBMESH_FLIGHT:
  //   unset / empty  in-memory ring, enabled (the always-on default)
  //   "0" / "off"    disabled
  //   <path>         mmap-backed ring at <path>, dump path <path>.dump,
  //                  fatal-signal dump handler installed
  // LAMBMESH_FLIGHT_EVENTS overrides the ring capacity.
  static FlightRecorder& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  bool file_backed() const { return mapped_file_; }
  const std::string& file_path() const { return file_path_; }

  // Re-homes the ring into a mmap'd file (truncating any previous
  // contents — the flight file is a live artifact, not durable state).
  // Existing events are carried over. Returns false (with *err filled)
  // on any OS failure, leaving the in-memory ring in place.
  bool open_file(const std::string& path, std::string* err = nullptr);

  // Causal epoch id attached to subsequently recorded events; the
  // MachineManager updates it on reconfigure/restore/open.
  void set_epoch(std::uint32_t epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
  }
  std::uint32_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  void record(FlightEventType type, std::uint16_t code = 0,
              std::int64_t a = 0, std::int64_t b = 0);

  // Most-recent-last copy of the valid tail (at most `limit` events,
  // bounded by capacity). Torn slots are skipped.
  std::vector<FlightEvent> tail(std::size_t limit) const;

  // Serializes the current tail into a sealed "LAMBFREC" container at
  // `path`. Async-signal-safe once a dump path has been configured (the
  // buffer is pre-allocated and the CRC table pre-warmed); uses only
  // open/write/close. Returns false on I/O failure.
  bool dump(const std::string& path, DumpReason reason);

  // Automatic-trigger entry point (watchdog, give-up, fatal signal):
  // dumps to the configured dump path, or does nothing when none is set
  // (benches must not scribble files into the working directory by
  // default). Returns whether a dump was written.
  bool dump_auto(DumpReason reason);

  void set_dump_path(const std::string& path);
  const std::string& dump_path() const { return dump_path_; }

  // Installs dump-on-fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that
  // write a sealed dump to the configured dump path and then re-raise
  // with the default disposition. Idempotent; process-wide (the handler
  // always dumps the global recorder).
  static void install_crash_handler();

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  // seq + 1, written last
    std::uint64_t t_ns = 0;
    std::uint32_t epoch = 0;
    std::uint16_t type = 0;
    std::uint16_t code = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };
  static_assert(sizeof(Slot) == kFlightSlotSize,
                "slot layout is part of the on-disk format");

  std::uint64_t now_ns() const;
  void write_ring_header(char* base) const;
  void close_mapping();
  // Serializes the tail into buf (>= dump_buffer_size() bytes); returns
  // the sealed byte count. Signal-safe: no allocation, no locks.
  std::size_t encode_dump(char* buf, DumpReason reason) const;
  std::size_t dump_buffer_size() const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint32_t> epoch_{0};
  std::size_t capacity_;
  Slot* slots_ = nullptr;              // into mapping_ or heap_
  std::unique_ptr<Slot[]> heap_;       // in-memory backing
  char* mapping_ = nullptr;        // mmap base (header + slots)
  std::size_t mapping_bytes_ = 0;
  bool mapped_file_ = false;
  std::string file_path_;
  std::string dump_path_;
  std::vector<char> dump_buffer_;  // pre-allocated for signal safety
  std::int64_t start_ns_ = 0;      // steady-clock origin
};

}  // namespace lamb::obs
