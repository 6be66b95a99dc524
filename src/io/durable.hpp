// Crash-safe durable state: atomic snapshot files plus a write-ahead
// journal, both framed by src/io/binary_format.hpp.
//
// A StateDir owns one component's persistence directory:
//
//   snap-<seq>.lms   versioned snapshots (monotone seq; newest wins)
//   journal.lmj      write-ahead journal of records since that snapshot
//   *.quarantine-<n> corrupt files renamed aside by recovery
//
// Write discipline: snapshots are written to a temp file, fsync'd, and
// renamed into place (readers never observe a half-written snapshot);
// journal appends are a single length+CRC-framed write followed by an
// fsync. A fresh snapshot atomically resets the journal (compaction) —
// the journal header binds the snapshot seq it extends, so a journal
// paired with the wrong snapshot generation is detected and ignored.
//
// Recovery (recover()) loads the newest snapshot whose seal and payload
// validate, quarantines any newer corrupt one, replays the journal's
// intact record prefix, and truncates a torn tail. Every corruption path
// degrades to a reported LoadError; none throws.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "io/binary_format.hpp"

namespace lamb::io {

struct DurableOptions {
  // fsync file data (and the directory on renames) at every commit
  // point. Disable only for tests/benchmarks where the failure model is
  // process death, not power loss.
  bool fsync = true;
};

// Whole-file helpers (binary, no newline translation).
bool read_file_bytes(const std::string& path, std::string* out,
                     LoadError* err);
// Temp file + fsync + rename + directory fsync.
bool atomic_write_file(const std::string& path, std::string_view bytes,
                       bool do_fsync, LoadError* err);

// Storage fault injector used by tests and the fsck self-checks: every
// corruption a disk or a crash can inflict, applied deterministically.
namespace storage_fault {
// Truncates the file to its first `keep_bytes` bytes (a torn write).
bool torn_write(const std::string& path, std::uint64_t keep_bytes);
// Flips bit `bit` (0-7) of byte `offset`.
bool bit_flip(const std::string& path, std::uint64_t offset, int bit);
// Reads only the first `max_bytes` bytes (a short read); feed the result
// to a decoder to exercise its truncation paths.
bool short_read(const std::string& path, std::uint64_t max_bytes,
                std::string* out);
}  // namespace storage_fault

class StateDir {
 public:
  // Validates a snapshot payload during recovery; return false (and
  // optionally fill err) to reject the snapshot as corrupt.
  using PayloadValidator =
      std::function<bool(std::string_view payload, LoadError* err)>;

  struct Recovered {
    std::uint64_t seq = 0;              // seq of the snapshot loaded
    std::string snapshot_payload;
    std::vector<std::string> journal_records;
    bool journal_tail_dropped = false;  // a torn/corrupt tail was truncated
    LoadError journal_tail;             // why the record scan stopped
    std::vector<std::string> quarantined;  // file names renamed aside
  };

  // A read-only description of the directory, for fsck.
  struct SnapshotInfo {
    std::string name;
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
    LoadError error;  // ok() when seal + (optional) payload validate
  };
  struct Scan {
    std::vector<SnapshotInfo> snapshots;  // newest first
    bool journal_present = false;
    std::uint64_t journal_bound_seq = 0;  // snapshot seq the journal extends
    LoadError journal_header;             // ok() when the header validates
    std::int64_t journal_records = 0;     // intact records
    LoadError journal_tail;               // ok() on clean EOF
    std::vector<std::string> quarantine_files;
    // True when recover() would succeed: some snapshot validates and the
    // journal is absent, stale, or has an intact prefix for it.
    bool recoverable = false;
  };

  StateDir(std::string dir, DurableOptions options = {});
  ~StateDir();
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;

  const std::string& dir() const { return dir_; }
  std::uint64_t seq() const { return seq_; }

  // Writes snapshot seq+1, atomically resets the journal to extend it,
  // and prunes all but the newest two snapshots. Creates the directory on
  // first use. On failure the previous snapshot + journal stay intact.
  LoadError write_snapshot(std::string_view payload);

  // Appends one framed record to the journal. write_snapshot (or
  // recover) must have been called first.
  LoadError append_journal(std::string_view record_payload);

  // Loads the newest valid snapshot + the journal's intact record
  // prefix. Corrupt snapshots newer than the chosen one and unusable
  // journals are renamed aside (quarantined); a torn journal tail is
  // truncated in place. After recover() the journal is open for appends.
  LoadError recover(Recovered* out, const PayloadValidator& validate = {});

  // Read-only inspection; never modifies the directory.
  static Scan scan(const std::string& dir,
                   const PayloadValidator& validate = {});

  static std::string snapshot_name(std::uint64_t seq);

 private:
  LoadError reset_journal(std::uint64_t bound_seq);
  LoadError open_journal_for_append();
  void close_journal();
  void prune_snapshots();
  std::string quarantine(const std::string& name);

  std::string dir_;
  DurableOptions options_;
  std::uint64_t seq_ = 0;
  std::FILE* journal_ = nullptr;
  int quarantine_counter_ = 0;
};

}  // namespace lamb::io
