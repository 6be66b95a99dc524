#include "obs/recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/crc32c.hpp"
#include "support/env.hpp"

namespace lamb::obs {

namespace {

// Little-endian stores usable from a signal handler (no allocation, no
// library calls). The repo's binary formats are little-endian throughout
// (io/binary_format.hpp design rule 2).
void store_u16(char* p, std::uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}
void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// Writes the whole buffer, retrying on EINTR / short writes.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

void crash_dump_handler(int signo) {
  FlightRecorder::global().dump_auto(DumpReason::kFatalSignal);
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (core dumps, wait status).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

const char* flight_event_type_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kRunBegin: return "run-begin";
    case FlightEventType::kRunEnd: return "run-end";
    case FlightEventType::kFaultApplied: return "fault-applied";
    case FlightEventType::kCheckpoint: return "checkpoint";
    case FlightEventType::kRollback: return "rollback";
    case FlightEventType::kReconfigureBegin: return "reconfigure-begin";
    case FlightEventType::kReconfigureEnd: return "reconfigure-end";
    case FlightEventType::kRouteVend: return "route-vend";
    case FlightEventType::kDegradeRung: return "degrade-rung";
    case FlightEventType::kJournalWrite: return "journal-write";
    case FlightEventType::kSnapshotWrite: return "snapshot-write";
    case FlightEventType::kWatchdog: return "watchdog";
    case FlightEventType::kDeadlock: return "deadlock";
    case FlightEventType::kGiveUp: return "give-up";
    case FlightEventType::kEpochBegin: return "epoch-begin";
    case FlightEventType::kEpochEnd: return "epoch-end";
    case FlightEventType::kDump: return "dump";
  }
  return "unknown";
}

void write_json(support::JsonWriter& w, const FlightEvent& ev) {
  w.record({{"seq", ev.seq}, {"t_ns", ev.t_ns}, {"epoch", ev.epoch},
            {"type", flight_event_type_name(
                         static_cast<FlightEventType>(ev.type))},
            {"code", ev.code}, {"a", ev.a}, {"b", ev.b}});
}

const char* dump_reason_name(DumpReason reason) {
  switch (reason) {
    case DumpReason::kManual: return "manual";
    case DumpReason::kWatchdog: return "watchdog";
    case DumpReason::kDeadlock: return "deadlock";
    case DumpReason::kGiveUp: return "give-up";
    case DumpReason::kFatalSignal: return "fatal-signal";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  heap_ = std::make_unique<Slot[]>(capacity_);
  slots_ = heap_.get();
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  dump_buffer_.resize(dump_buffer_size());
  support::crc32c_warmup();
}

FlightRecorder::~FlightRecorder() { close_mapping(); }

std::uint64_t FlightRecorder::now_ns() const {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<std::uint64_t>(now - start_ns_);
}

void FlightRecorder::record(FlightEventType type, std::uint16_t code,
                            std::int64_t a, std::int64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  // Seqlock write protocol: invalidate, fill, publish. A concurrent
  // reader that observes stamp == 0 or a stamp/recheck mismatch skips
  // the slot instead of reading torn fields.
  slot.stamp.store(0, std::memory_order_release);
  slot.t_ns = now_ns();
  slot.epoch = epoch_.load(std::memory_order_relaxed);
  slot.type = static_cast<std::uint16_t>(type);
  slot.code = code;
  slot.a = a;
  slot.b = b;
  slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t limit) const {
  std::vector<FlightEvent> out;
  const std::uint64_t next = next_seq_.load(std::memory_order_acquire);
  const std::uint64_t window =
      std::min<std::uint64_t>({next, capacity_, limit});
  out.reserve(window);
  for (std::uint64_t seq = next - window; seq < next; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    FlightEvent ev;
    ev.seq = seq;
    ev.t_ns = slot.t_ns;
    ev.epoch = slot.epoch;
    ev.type = slot.type;
    ev.code = slot.code;
    ev.a = slot.a;
    ev.b = slot.b;
    // Re-check after copying: a writer lapping the ring mid-copy would
    // have bumped (or zeroed) the stamp.
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::write_ring_header(char* base) const {
  std::memset(base, 0, kFlightHeaderSize);
  std::memcpy(base, kFlightRingMagic, 8);
  store_u32(base + 8, kFlightFormatVersion);
  store_u32(base + 12, static_cast<std::uint32_t>(kFlightSlotSize));
  store_u64(base + 16, static_cast<std::uint64_t>(capacity_));
}

bool FlightRecorder::open_file(const std::string& path, std::string* err) {
  const std::size_t bytes = kFlightHeaderSize + capacity_ * kFlightSlotSize;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (err) *err = "open(" + path + "): " + std::strerror(errno);
    return false;
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    if (err) *err = "ftruncate(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    if (err) *err = "mmap(" + path + "): " + std::strerror(errno);
    return false;
  }
  char* base = static_cast<char*>(map);
  write_ring_header(base);
  Slot* mapped_slots =
      reinterpret_cast<Slot*>(base + kFlightHeaderSize);  // NOLINT
  for (std::size_t i = 0; i < capacity_; ++i) new (&mapped_slots[i]) Slot;
  // Carry already-recorded events into the new backing so an open_file
  // right after startup doesn't lose the bootstrap events.
  for (std::size_t i = 0; i < capacity_; ++i) {
    const std::uint64_t stamp = slots_[i].stamp.load(std::memory_order_acquire);
    if (stamp == 0) continue;
    Slot& dst = mapped_slots[i];
    dst.t_ns = slots_[i].t_ns;
    dst.epoch = slots_[i].epoch;
    dst.type = slots_[i].type;
    dst.code = slots_[i].code;
    dst.a = slots_[i].a;
    dst.b = slots_[i].b;
    dst.stamp.store(stamp, std::memory_order_release);
  }
  close_mapping();
  mapping_ = base;
  mapping_bytes_ = bytes;
  mapped_file_ = true;
  file_path_ = path;
  slots_ = mapped_slots;
  return true;
}

void FlightRecorder::close_mapping() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    mapping_bytes_ = 0;
    mapped_file_ = false;
    slots_ = heap_.get();
  }
}

std::size_t FlightRecorder::dump_buffer_size() const {
  // Seal header + u32 reason + u32 count + events.
  return 24 + 8 + capacity_ * kFlightSlotSize;
}

std::size_t FlightRecorder::encode_dump(char* buf, DumpReason reason) const {
  char* payload = buf + 24;
  store_u32(payload, static_cast<std::uint32_t>(reason));
  char* cursor = payload + 8;  // count back-patched below
  std::uint32_t count = 0;
  const std::uint64_t next = next_seq_.load(std::memory_order_acquire);
  const std::uint64_t window = std::min<std::uint64_t>(next, capacity_);
  for (std::uint64_t seq = next - window; seq < next; ++seq) {
    const Slot& slot = slots_[seq % capacity_];
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    store_u64(cursor, seq);
    store_u64(cursor + 8, slot.t_ns);
    store_u32(cursor + 16, slot.epoch);
    store_u16(cursor + 20, slot.type);
    store_u16(cursor + 22, slot.code);
    store_u64(cursor + 24, static_cast<std::uint64_t>(slot.a));
    store_u64(cursor + 32, static_cast<std::uint64_t>(slot.b));
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    cursor += kFlightSlotSize;
    ++count;
  }
  store_u32(payload + 4, count);
  const std::size_t payload_len = 8 + count * kFlightSlotSize;
  // Seal header, identical layout to io::seal so lambmesh_fsck's
  // container logic recognizes the file.
  std::memcpy(buf, kFlightDumpMagic, 8);
  store_u32(buf + 8, kFlightFormatVersion);
  store_u64(buf + 12, payload_len);
  store_u32(buf + 20,
            support::crc32c(std::string_view(payload, payload_len)));
  return 24 + payload_len;
}

bool FlightRecorder::dump(const std::string& path, DumpReason reason) {
  record(FlightEventType::kDump, static_cast<std::uint16_t>(reason));
  const std::size_t len = encode_dump(dump_buffer_.data(), reason);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, dump_buffer_.data(), len);
  ::close(fd);
  return ok;
}

bool FlightRecorder::dump_auto(DumpReason reason) {
  if (dump_path_.empty()) return false;
  return dump(dump_path_, reason);
}

void FlightRecorder::set_dump_path(const std::string& path) {
  dump_path_ = path;
}

void FlightRecorder::install_crash_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &crash_dump_handler;
  ::sigemptyset(&sa.sa_mask);
  for (const int signo : kFatalSignals) {
    ::sigaction(signo, &sa, nullptr);
  }
}

FlightRecorder& FlightRecorder::global() {
  // Leaked so instrumented code may record during static destruction
  // (mirrors MetricsRegistry::global()).
  static FlightRecorder* instance = [] {
    const long events = env_long("LAMBMESH_FLIGHT_EVENTS", 0);
    auto* rec = new FlightRecorder(
        events > 0 ? static_cast<std::size_t>(events) : kDefaultCapacity);
    const char* spec = std::getenv("LAMBMESH_FLIGHT");
    if (spec != nullptr && spec[0] != '\0') {
      const std::string value = spec;
      if (value == "0" || value == "off") {
        rec->set_enabled(false);
      } else {
        // Best effort: on failure the in-memory ring keeps recording.
        rec->open_file(value);
        rec->set_dump_path(value + ".dump");
        install_crash_handler();
      }
    }
    return rec;
  }();
  return *instance;
}

}  // namespace lamb::obs
