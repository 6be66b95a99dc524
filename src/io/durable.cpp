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
constexpr std::uint32_t kSnapshotVersion = 3;
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

namespace storage_fault {

bool torn_write(const std::string& path, std::uint64_t keep_bytes) {
  std::error_code ec;
  fs::resize_file(path, keep_bytes, ec);
  return !ec;
}

bool bit_flip(const std::string& path, std::uint64_t offset, int bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
  int c = 0;
  if (ok) {
    c = std::fgetc(f);
    ok = c != EOF;
  }
  if (ok) {
    ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
         std::fputc(c ^ (1 << bit), f) != EOF;
  }
  return (std::fclose(f) == 0) && ok;
}

bool short_read(const std::string& path, std::uint64_t max_bytes,
                std::string* out) {
  std::string all;
  if (!read_file_bytes(path, &all, nullptr)) return false;
  *out = all.substr(0, max_bytes);
  return true;
}

}  // namespace storage_fault

// -------------------------------------------------------------- StateDir

StateDir::StateDir(std::string dir, DurableOptions options)
    : dir_(std::move(dir)), options_(options) {
  // Never reuse a seq already present (even a corrupt one), so a fresh
  // lineage started over dead state sorts strictly newer.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      seq_ = std::max(seq_, seq);
    }
  }
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
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      snaps.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(snaps.begin(), snaps.end());
  if (snaps.size() <= kKeepSnapshots) return;
  for (std::size_t i = 0; i + kKeepSnapshots < snaps.size(); ++i) {
    fs::remove(snaps[i].second, ec);
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
  *out = Recovered{};
  LoadError err;
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) {
    err.code = LoadError::Code::kIo;
    err.detail = "no state directory at " + dir_;
    return err;
  }

  // Newest snapshot whose seal and payload validate wins; corrupt newer
  // ones are quarantined so they never shadow good state again.
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      snaps.emplace_back(seq, entry.path().filename().string());
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  bool found = false;
  LoadError last_snapshot_error;
  last_snapshot_error.code = LoadError::Code::kTruncated;
  last_snapshot_error.detail = "no snapshot in " + dir_;
  for (const auto& [seq, name] : snaps) {
    std::string file;
    LoadError snap_err;
    std::string_view payload;
    if (read_file_bytes(dir_ + "/" + name, &file, &snap_err)) {
      snap_err = unseal(file, kSnapshotMagic, kSnapshotVersion, &payload);
      if (snap_err.ok() && validate && !validate(payload, &snap_err)) {
        if (snap_err.ok()) {
          snap_err.code = LoadError::Code::kMalformed;
          snap_err.detail = "snapshot payload rejected";
        }
      }
    }
    if (snap_err.ok()) {
      out->seq = seq;
      out->snapshot_payload.assign(payload.data(), payload.size());
      found = true;
      break;
    }
    snap_err.detail = name + ": " + snap_err.detail;
    last_snapshot_error = snap_err;
    out->quarantined.push_back(quarantine(name));
  }
  if (!found) {
    close_journal();
    return last_snapshot_error;
  }

  // Journal: replay its intact record prefix iff it extends the loaded
  // snapshot; truncate a torn tail; quarantine an unusable journal.
  const std::string journal_path = dir_ + "/" + kJournalName;
  std::string file;
  if (!fs::exists(journal_path, ec)) {
    err = reset_journal(out->seq);
    if (err.ok()) seq_ = std::max(seq_, out->seq);
    obs::counter("durable.opens").add();
    return err;
  }
  if (!read_file_bytes(journal_path, &file, &err)) return err;
  std::uint64_t bound_seq = 0;
  LoadError header_err = parse_journal_header(file, &bound_seq);
  if (!header_err.ok()) {
    out->quarantined.push_back(quarantine(kJournalName));
    out->journal_tail_dropped = true;
    out->journal_tail = header_err;
    err = reset_journal(out->seq);
  } else if (bound_seq != out->seq) {
    if (bound_seq < out->seq) {
      // Stale: a crash landed between the snapshot rename and the journal
      // reset. Its records are already folded into the snapshot.
      err = reset_journal(out->seq);
    } else {
      // The journal extends a snapshot we could not load; its deltas are
      // unusable against the older state we fell back to.
      out->quarantined.push_back(quarantine(kJournalName));
      out->journal_tail_dropped = true;
      out->journal_tail.code = LoadError::Code::kMalformed;
      out->journal_tail.detail =
          "journal extends snapshot seq " + std::to_string(bound_seq) +
          ", recovered seq " + std::to_string(out->seq);
      err = reset_journal(out->seq);
    }
  } else {
    RecordScan scan = scan_records(
        std::string_view(file).substr(kJournalHeaderSize));
    out->journal_records = std::move(scan.payloads);
    if (!scan.tail.ok()) {
      out->journal_tail_dropped = true;
      out->journal_tail = scan.tail;
      fs::resize_file(journal_path, kJournalHeaderSize + scan.valid_prefix,
                      ec);
      if (ec) {
        return io_error("cannot truncate torn journal tail in " + dir_);
      }
    }
    err = open_journal_for_append();
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
  Scan result;
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (parse_snapshot_name(name, &seq)) {
      snaps.emplace_back(seq, name);
    } else if (name.find(".quarantine-") != std::string::npos) {
      result.quarantine_files.push_back(name);
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  std::uint64_t valid_seq = 0;
  bool have_valid = false;
  for (const auto& [seq, name] : snaps) {
    SnapshotInfo info;
    info.name = name;
    info.seq = seq;
    std::string file;
    std::string_view payload;
    if (read_file_bytes(dir + "/" + name, &file, &info.error)) {
      info.bytes = file.size();
      info.error = unseal(file, kSnapshotMagic, kSnapshotVersion, &payload);
      if (info.error.ok() && validate && !validate(payload, &info.error)) {
        if (info.error.ok()) {
          info.error.code = LoadError::Code::kMalformed;
          info.error.detail = "snapshot payload rejected";
        }
      }
    }
    if (info.error.ok() && !have_valid) {
      have_valid = true;
      valid_seq = seq;
    }
    result.snapshots.push_back(std::move(info));
  }

  const std::string journal_path = dir + "/" + kJournalName;
  std::string file;
  if (fs::exists(journal_path, ec) &&
      read_file_bytes(journal_path, &file, &result.journal_header)) {
    result.journal_present = true;
    result.journal_header =
        parse_journal_header(file, &result.journal_bound_seq);
    if (result.journal_header.ok()) {
      const RecordScan scan = scan_records(
          std::string_view(file).substr(kJournalHeaderSize));
      result.journal_records =
          static_cast<std::int64_t>(scan.payloads.size());
      result.journal_tail = scan.tail;
    }
  }
  result.recoverable = have_valid;
  (void)valid_seq;
  return result;
}

}  // namespace lamb::io
