#include "io/durable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/obs.hpp"
#include "support/crc32c.hpp"

namespace lamb::io {

namespace fs = std::filesystem;

namespace {

constexpr char kSnapshotMagic[kMagicSize + 1] = "LAMBSNAP";
constexpr char kJournalMagic[kMagicSize + 1] = "LAMBJRNL";
// Version 2: EpochReport gained the incremental-reconfigure fields.
// Version 3: EpochReport dropped the cover warm-start retention field.
// Version 4: Checkpoint dropped `rounds` and gained the pending fault lists.
constexpr std::uint32_t kSnapshotVersion = 4;
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kJournalHeaderSize = kMagicSize + 4 + 8 + 4;
constexpr char kJournalName[] = "journal.lmj";
constexpr std::size_t kKeepSnapshots = 2;  // roll-back targets on recovery

LoadError io_error(std::string detail) {
  LoadError err;
  err.code = LoadError::Code::kIo;
  err.detail = std::move(detail);
  if (errno != 0) {
    err.detail += ": ";
    err.detail += std::strerror(errno);
  }
  return err;
}

bool fsync_fd(int fd) { return ::fsync(fd) == 0; }

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync_fd(fd);
  ::close(fd);
  return ok;
}

std::string parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

std::string journal_header(std::uint64_t bound_seq) {
  ByteWriter w;
  w.bytes(std::string_view(kJournalMagic, kMagicSize));
  ByteWriter body;
  body.u32(kJournalVersion);
  body.u64(bound_seq);
  w.bytes(body.data());
  w.u32(support::crc32c(body.data()));
  return w.take();
}

// Parses the 24-byte journal header; on success fills *bound_seq.
LoadError parse_journal_header(std::string_view file,
                               std::uint64_t* bound_seq) {
  LoadError err;
  if (file.size() < kJournalHeaderSize) {
    err.code = LoadError::Code::kTruncated;
    err.offset = file.size();
    err.detail = "journal header truncated";
    return err;
  }
  if (file.substr(0, kMagicSize) !=
      std::string_view(kJournalMagic, kMagicSize)) {
    err.code = LoadError::Code::kBadMagic;
    err.detail = "journal magic mismatch";
    return err;
  }
  const std::string_view body = file.substr(kMagicSize, 12);
  ByteReader r(file.substr(kMagicSize));
  std::uint32_t version = 0;
  std::uint64_t seq = 0;
  std::uint32_t crc = 0;
  r.u32(&version);
  r.u64(&seq);
  r.u32(&crc);
  if (support::crc32c(body) != crc) {
    err.code = LoadError::Code::kBadCrc;
    err.offset = kMagicSize;
    err.detail = "journal header checksum mismatch";
    return err;
  }
  if (version != kJournalVersion) {
    err.code = LoadError::Code::kBadVersion;
    err.offset = kMagicSize;
    err.detail = "journal version " + std::to_string(version);
    return err;
  }
  *bound_seq = seq;
  return err;
}

// snap-<seq>.lms with a zero-padded seq so lexicographic == numeric.
bool parse_snapshot_name(const std::string& name, std::uint64_t* seq) {
  constexpr std::string_view prefix = "snap-";
  constexpr std::string_view suffix = ".lms";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

// The snap-<seq>.lms files in `dir`, ascending by seq (none when the
// directory cannot be listed); other files renamed aside by recovery go
// to *quarantined when it is given.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& dir, std::vector<std::string>* quarantined = nullptr) {
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (parse_snapshot_name(name, &seq)) {
      snaps.emplace_back(seq, std::move(name));
    } else if (quarantined != nullptr &&
               name.find(".quarantine-") != std::string::npos) {
      quarantined->push_back(std::move(name));
    }
  }
  std::sort(snaps.begin(), snaps.end());
  return snaps;
}

// The one reader of a state directory (see StateDir::Scan). Snapshots are
// examined newest first; unless `examine_all`, the survey stops at the
// first that validates, which is the one recovery loads.
StateDir::Scan survey(const std::string& dir,
                      const StateDir::PayloadValidator& validate,
                      bool examine_all) {
  StateDir::Scan scan;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    scan.error.code = LoadError::Code::kIo;
    scan.error.detail = "no state directory at " + dir;
    return scan;
  }
  const auto snaps = list_snapshots(dir, &scan.quarantine_files);
  bool loaded = false;
  scan.error.code = LoadError::Code::kTruncated;
  scan.error.detail = "no snapshot in " + dir;
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    if (loaded && !examine_all) break;
    StateDir::SnapshotInfo info;
    info.seq = it->first;
    info.name = it->second;
    std::string file;
    std::string_view payload;
    if (read_file_bytes(dir + "/" + info.name, &file, &info.error)) {
      info.bytes = file.size();
      info.error = unseal(file, kSnapshotMagic, kSnapshotVersion, &payload);
      if (info.error.ok() && validate && !validate(payload, &info.error) &&
          info.error.ok()) {
        info.error.code = LoadError::Code::kMalformed;
        info.error.detail = "snapshot payload rejected";
      }
    }
    if (!loaded && info.error.ok()) {
      loaded = true;
      scan.error = LoadError{};
      scan.seq = info.seq;
      scan.snapshot_payload.assign(payload.data(), payload.size());
    } else if (!loaded) {  // the reason if no older snapshot loads either
      scan.error = info.error;
      scan.error.detail = info.name + ": " + info.error.detail;
    }
    scan.snapshots.push_back(std::move(info));
  }

  const std::string journal_path = dir + "/" + kJournalName;
  std::string journal;
  if (fs::exists(journal_path, ec)) {
    scan.journal_present = true;
    if (!read_file_bytes(journal_path, &journal, &scan.journal_header)) {
      // Recovery cannot tell what the journal holds.
      if (loaded) scan.error = scan.journal_header;
      return scan;
    }
    scan.journal_header =
        parse_journal_header(journal, &scan.journal_bound_seq);
  }
  scan.recoverable = loaded;
  if (!loaded || !scan.journal_present) return scan;
  if (!scan.journal_header.ok()) {
    scan.journal_action = StateDir::JournalAction::kQuarantine;
    scan.journal_tail = scan.journal_header;
  } else if (scan.journal_bound_seq > scan.seq) {
    // The journal extends a snapshot that did not load; its deltas are
    // unusable against the older state recovery falls back to.
    scan.journal_action = StateDir::JournalAction::kQuarantine;
    scan.journal_tail.code = LoadError::Code::kMalformed;
    scan.journal_tail.detail = "journal extends snapshot seq " +
                               std::to_string(scan.journal_bound_seq) +
                               ", recovered seq " + std::to_string(scan.seq);
  } else if (scan.journal_bound_seq == scan.seq) {
    RecordScan records =
        scan_records(std::string_view(journal).substr(kJournalHeaderSize));
    scan.journal_action = StateDir::JournalAction::kReplay;
    scan.journal_records = std::move(records.payloads);
    scan.journal_intact_bytes = kJournalHeaderSize + records.valid_prefix;
    scan.journal_tail = records.tail;
  }
  // Otherwise the journal is stale: a crash landed between the snapshot
  // rename and the journal reset, and its records are already folded into
  // the snapshot. Recovery resets it.
  return scan;
}

}  // namespace

bool read_file_bytes(const std::string& path, std::string* out,
                     LoadError* err) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = io_error("cannot open " + path);
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out->append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    if (err != nullptr) *err = io_error("cannot read " + path);
    return false;
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view bytes,
                       bool do_fsync, LoadError* err) {
  const std::string tmp = path + ".tmp";
  errno = 0;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = io_error("cannot create " + tmp);
    return false;
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fflush(f) == 0 && ok;
  if (ok && do_fsync) ok = fsync_fd(fileno(f));
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    if (err != nullptr) *err = io_error("cannot write " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err != nullptr) *err = io_error("cannot rename " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (do_fsync) fsync_dir(parent_dir(path));
  return true;
}

// -------------------------------------------------------------- StateDir

StateDir::StateDir(std::string dir, DurableOptions options)
    : dir_(std::move(dir)), options_(options) {
  // Never reuse a seq already present (even a corrupt one), so a fresh
  // lineage started over dead state sorts strictly newer.
  const auto snaps = list_snapshots(dir_);
  if (!snaps.empty()) seq_ = snaps.back().first;
}

StateDir::~StateDir() { close_journal(); }

std::string StateDir::snapshot_name(std::uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "snap-%020llu.lms",
                static_cast<unsigned long long>(seq));
  return buf;
}

void StateDir::close_journal() {
  if (journal_ != nullptr) {
    std::fclose(journal_);
    journal_ = nullptr;
  }
}

LoadError StateDir::write_snapshot(std::string_view payload) {
  obs::Span span("durable.snapshot", "io");
  LoadError err;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return io_error("cannot create directory " + dir_);
  const std::uint64_t next = seq_ + 1;
  const std::string sealed = seal(kSnapshotMagic, kSnapshotVersion, payload);
  if (!atomic_write_file(dir_ + "/" + snapshot_name(next), sealed,
                         options_.fsync, &err)) {
    return err;
  }
  // The snapshot is durable; rebinding the journal must come after, so a
  // crash in between leaves a (stale) journal that recovery discards.
  err = reset_journal(next);
  if (!err.ok()) return err;
  seq_ = next;
  prune_snapshots();
  obs::counter("durable.snapshots").add();
  obs::counter("durable.snapshot_bytes")
      .add(static_cast<std::int64_t>(sealed.size()));
  span.arg("seq", static_cast<double>(next));
  span.arg("bytes", static_cast<double>(sealed.size()));
  return err;
}

LoadError StateDir::reset_journal(std::uint64_t bound_seq) {
  close_journal();
  LoadError err;
  if (!atomic_write_file(dir_ + "/" + kJournalName,
                         journal_header(bound_seq), options_.fsync, &err)) {
    return err;
  }
  return open_journal_for_append();
}

LoadError StateDir::open_journal_for_append() {
  close_journal();
  journal_ = std::fopen((dir_ + "/" + kJournalName).c_str(), "ab");
  if (journal_ == nullptr) {
    return io_error("cannot open journal in " + dir_);
  }
  LoadError err;
  return err;
}

LoadError StateDir::append_journal(std::string_view record_payload) {
  LoadError err;
  if (journal_ == nullptr) {
    err.code = LoadError::Code::kIo;
    err.detail = "journal not open (write_snapshot/recover first)";
    return err;
  }
  std::string frame;
  append_record_frame(&frame, record_payload);
  if (std::fwrite(frame.data(), 1, frame.size(), journal_) != frame.size() ||
      std::fflush(journal_) != 0 ||
      (options_.fsync && !fsync_fd(fileno(journal_)))) {
    return io_error("journal append failed in " + dir_);
  }
  obs::counter("durable.journal_records").add();
  obs::counter("durable.journal_bytes")
      .add(static_cast<std::int64_t>(frame.size()));
  return err;
}

void StateDir::prune_snapshots() {
  const auto snaps = list_snapshots(dir_);
  std::error_code ec;
  for (std::size_t i = 0; i + kKeepSnapshots < snaps.size(); ++i) {
    fs::remove(dir_ + "/" + snaps[i].second, ec);
  }
}

std::string StateDir::quarantine(const std::string& name) {
  std::error_code ec;
  for (;;) {
    const std::string target =
        name + ".quarantine-" + std::to_string(quarantine_counter_++);
    if (!fs::exists(dir_ + "/" + target, ec)) {
      fs::rename(dir_ + "/" + name, dir_ + "/" + target, ec);
      obs::counter("durable.quarantined").add();
      return target;
    }
  }
}

LoadError StateDir::recover(Recovered* out, const PayloadValidator& validate) {
  obs::Span span("durable.recover", "io");
  Scan scan = survey(dir_, validate, /*examine_all=*/false);
  *out = Recovered{};
  // Corrupt snapshots newer than the one loaded (all of them when none
  // loads) are renamed aside so they never shadow good state again.
  for (const SnapshotInfo& snap : scan.snapshots) {
    if (snap.error.ok()) break;
    out->quarantined.push_back(quarantine(snap.name));
  }
  if (!scan.recoverable) {
    close_journal();
    return scan.error;
  }
  out->seq = scan.seq;
  out->snapshot_payload = std::move(scan.snapshot_payload);
  out->journal_records = std::move(scan.journal_records);
  out->journal_tail = scan.journal_tail;
  out->journal_tail_dropped = !scan.journal_tail.ok();

  LoadError err;
  switch (scan.journal_action) {
    case JournalAction::kQuarantine:
      out->quarantined.push_back(quarantine(kJournalName));
      err = reset_journal(scan.seq);
      break;
    case JournalAction::kReset:
      err = reset_journal(scan.seq);
      break;
    case JournalAction::kReplay:
      if (out->journal_tail_dropped) {
        std::error_code ec;
        fs::resize_file(dir_ + "/" + kJournalName, scan.journal_intact_bytes,
                        ec);
        if (ec) {
          return io_error("cannot truncate torn journal tail in " + dir_);
        }
      }
      err = open_journal_for_append();
      break;
  }
  if (err.ok()) seq_ = std::max(seq_, out->seq);
  obs::counter("durable.opens").add();
  if (out->journal_tail_dropped) obs::counter("durable.torn_tails").add();
  span.arg("seq", static_cast<double>(out->seq));
  span.arg("records", static_cast<double>(out->journal_records.size()));
  return err;
}

StateDir::Scan StateDir::scan(const std::string& dir,
                              const PayloadValidator& validate) {
  return survey(dir, validate, /*examine_all=*/true);
}

}  // namespace lamb::io
