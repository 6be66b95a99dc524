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
// Recovery reads the directory through one read-only survey (scan()):
// the newest snapshot whose seal and payload validate, the journal's
// header and intact record prefix, and the repairs they call for.
// recover() carries those repairs out (quarantines any newer corrupt
// snapshot and an unusable journal, truncates a torn tail), so fsck's
// report and what a restart loads cannot disagree. Every corruption path
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

  struct SnapshotInfo {
    std::string name;
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
    LoadError error;  // ok() when seal + (optional) payload validate
  };
  // What recovery does with the journal.
  enum class JournalAction : std::uint8_t {
    kReset,       // absent, or stale (extends an older snapshot): start empty
    kReplay,      // extends the loaded snapshot: replay its intact records
                  // and truncate a torn tail
    kQuarantine,  // bad header, or extends a snapshot that cannot be
                  // loaded: rename it aside and start empty
  };
  // The one read-only survey of a directory, and recover()'s plan.
  struct Scan {
    std::vector<SnapshotInfo> snapshots;  // newest first
    std::vector<std::string> quarantine_files;  // renamed aside earlier
    // True when recover() succeeds; otherwise `error` says why not.
    bool recoverable = false;
    LoadError error;
    // The snapshot recovery loads: the newest one that validates.
    // Recovery quarantines every snapshot listed before it (all of them
    // when none validates).
    std::uint64_t seq = 0;
    std::string snapshot_payload;
    bool journal_present = false;
    std::uint64_t journal_bound_seq = 0;  // snapshot seq the journal extends
    LoadError journal_header;             // ok() when the header validates
    JournalAction journal_action = JournalAction::kReset;
    std::vector<std::string> journal_records;  // the intact records replayed
    std::uint64_t journal_intact_bytes = 0;    // header + those records
    LoadError journal_tail;  // why recovery drops journal bytes; ok() if none
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

  // Loads what scan() plans: the newest valid snapshot and the journal's
  // intact record prefix. Corrupt snapshots newer than the chosen one and
  // unusable journals are renamed aside (quarantined); a torn journal
  // tail is truncated in place. After recover() the journal is open for
  // appends. Reads no snapshot older than the one it loads.
  LoadError recover(Recovered* out, const PayloadValidator& validate = {});

  // Read-only survey; never modifies the directory. Unlike recover() it
  // also examines the snapshots older than the one recovery loads.
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
