// Tests for the durable-state layer: atomic snapshots, the write-ahead
// journal, recovery under injected storage faults (torn writes, bit
// flips, short reads), and MachineManager's kill-and-restart property —
// a reopened manager lands on a consistent prefix of the pre-crash
// state and continues deterministically.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "io/binary_format.hpp"
#include "io/durable.hpp"
#include "manager/machine_manager.hpp"
#include "mesh/mesh.hpp"
#include "storage_fault.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

namespace fs = std::filesystem;
using io::LoadError;
using io::StateDir;

// Fresh, empty directory under the test temp root.
std::string state_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "lamb_durable_" + name;
  fs::remove_all(dir);
  return dir;
}

// Snapshot-and-journal options without fsync: these tests model process
// death, not power loss, and fsync dominates runtime on slow disks.
io::DurableOptions fast() {
  io::DurableOptions options;
  options.fsync = false;
  return options;
}

std::string newest_snapshot_path(const std::string& dir) {
  const StateDir::Scan scan = StateDir::scan(dir);
  EXPECT_FALSE(scan.snapshots.empty());
  return dir + "/" + scan.snapshots.front().name;
}

TEST(StateDir, SnapshotAndJournalRoundtrip) {
  const std::string dir = state_dir("roundtrip");
  {
    StateDir state(dir, fast());
    ASSERT_TRUE(state.write_snapshot("base-state").ok());
    ASSERT_TRUE(state.append_journal("delta-1").ok());
    ASSERT_TRUE(state.append_journal("delta-2").ok());
  }
  StateDir state(dir, fast());
  StateDir::Recovered rec;
  ASSERT_TRUE(state.recover(&rec).ok());
  EXPECT_EQ(rec.seq, 1u);
  EXPECT_EQ(rec.snapshot_payload, "base-state");
  ASSERT_EQ(rec.journal_records.size(), 2u);
  EXPECT_EQ(rec.journal_records[0], "delta-1");
  EXPECT_EQ(rec.journal_records[1], "delta-2");
  EXPECT_FALSE(rec.journal_tail_dropped);
  EXPECT_TRUE(rec.quarantined.empty());

  // The journal is open again after recovery; appends accumulate.
  ASSERT_TRUE(state.append_journal("delta-3").ok());
  StateDir reopened(dir, fast());
  StateDir::Recovered rec2;
  ASSERT_TRUE(reopened.recover(&rec2).ok());
  EXPECT_EQ(rec2.journal_records.size(), 3u);
}

TEST(StateDir, FreshSnapshotResetsJournal) {
  const std::string dir = state_dir("compaction");
  StateDir state(dir, fast());
  ASSERT_TRUE(state.write_snapshot("v1").ok());
  ASSERT_TRUE(state.append_journal("old-delta").ok());
  ASSERT_TRUE(state.write_snapshot("v2").ok());

  StateDir reopened(dir, fast());
  StateDir::Recovered rec;
  ASSERT_TRUE(reopened.recover(&rec).ok());
  EXPECT_EQ(rec.seq, 2u);
  EXPECT_EQ(rec.snapshot_payload, "v2");
  EXPECT_TRUE(rec.journal_records.empty());
}

TEST(StateDir, TornJournalTailIsTruncated) {
  const std::string dir = state_dir("torn_tail");
  {
    StateDir state(dir, fast());
    ASSERT_TRUE(state.write_snapshot("base").ok());
    ASSERT_TRUE(state.append_journal("keep-me").ok());
    ASSERT_TRUE(state.append_journal("torn-record").ok());
  }
  const std::string journal = dir + "/journal.lmj";
  const std::uint64_t size = fs::file_size(journal);
  ASSERT_TRUE(io::storage_fault::torn_write(journal, size - 3));

  StateDir state(dir, fast());
  StateDir::Recovered rec;
  ASSERT_TRUE(state.recover(&rec).ok());
  ASSERT_EQ(rec.journal_records.size(), 1u);
  EXPECT_EQ(rec.journal_records[0], "keep-me");
  EXPECT_TRUE(rec.journal_tail_dropped);
  EXPECT_EQ(rec.journal_tail.code, LoadError::Code::kTruncated);

  // The tail was truncated in place: a second recovery is clean.
  StateDir again(dir, fast());
  StateDir::Recovered rec2;
  ASSERT_TRUE(again.recover(&rec2).ok());
  EXPECT_EQ(rec2.journal_records.size(), 1u);
  EXPECT_FALSE(rec2.journal_tail_dropped);
}

TEST(StateDir, CorruptNewestSnapshotFallsBackAndQuarantines) {
  const std::string dir = state_dir("fallback");
  {
    StateDir state(dir, fast());
    ASSERT_TRUE(state.write_snapshot("good-old").ok());
    ASSERT_TRUE(state.write_snapshot("bad-new").ok());
  }
  ASSERT_TRUE(io::storage_fault::bit_flip(newest_snapshot_path(dir),
                                          io::kSealHeaderSize + 1, 3));

  StateDir state(dir, fast());
  StateDir::Recovered rec;
  ASSERT_TRUE(state.recover(&rec).ok());
  EXPECT_EQ(rec.seq, 1u);
  EXPECT_EQ(rec.snapshot_payload, "good-old");
  // Both the corrupt snapshot and its (now unusable) journal moved aside.
  EXPECT_EQ(rec.quarantined.size(), 2u);
  EXPECT_TRUE(rec.journal_tail_dropped);

  // A fresh lineage must sort above the dead seq 2, not reuse it.
  ASSERT_TRUE(state.write_snapshot("fresh").ok());
  EXPECT_EQ(state.seq(), 3u);
}

TEST(StateDir, StaleJournalFromBeforeSnapshotIsDiscarded) {
  const std::string dir = state_dir("stale_journal");
  const std::string journal = dir + "/journal.lmj";
  std::string old_journal;
  {
    StateDir state(dir, fast());
    ASSERT_TRUE(state.write_snapshot("v1").ok());
    ASSERT_TRUE(state.append_journal("pre-compaction-delta").ok());
    ASSERT_TRUE(io::read_file_bytes(journal, &old_journal, nullptr));
    ASSERT_TRUE(state.write_snapshot("v2").ok());
  }
  // Crash window: snapshot v2 landed but the journal reset did not.
  LoadError err;
  ASSERT_TRUE(io::atomic_write_file(journal, old_journal, false, &err));

  StateDir state(dir, fast());
  StateDir::Recovered rec;
  ASSERT_TRUE(state.recover(&rec).ok());
  EXPECT_EQ(rec.snapshot_payload, "v2");
  EXPECT_TRUE(rec.journal_records.empty());
  EXPECT_FALSE(rec.journal_tail_dropped);
}

TEST(StateDir, ShortReadSurfacesAsTruncation) {
  const std::string dir = state_dir("short_read");
  {
    StateDir state(dir, fast());
    ASSERT_TRUE(state.write_snapshot("some-state-payload").ok());
  }
  std::string prefix;
  ASSERT_TRUE(
      io::storage_fault::short_read(newest_snapshot_path(dir), 10, &prefix));
  EXPECT_EQ(prefix.size(), 10u);
  std::string_view payload;
  EXPECT_EQ(io::unseal(prefix, "LAMBSNAP", 1, &payload).code,
            LoadError::Code::kTruncated);
}

TEST(StateDir, EmptyDirectoryIsUnrecoverable) {
  const std::string dir = state_dir("empty");
  fs::create_directories(dir);
  StateDir state(dir, fast());
  StateDir::Recovered rec;
  const LoadError err = state.recover(&rec);
  EXPECT_FALSE(err.ok());
}

TEST(StateDir, PruneKeepsConfiguredSnapshotCount) {
  const std::string dir = state_dir("prune");
  StateDir state(dir, fast());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(state.write_snapshot("v" + std::to_string(i)).ok());
  }
  const StateDir::Scan scan = StateDir::scan(dir);
  EXPECT_EQ(scan.snapshots.size(), 2u);  // the two newest are kept
  EXPECT_EQ(scan.snapshots.front().seq, 5u);
  EXPECT_TRUE(scan.recoverable);
}

// A file name recover() renamed aside, with its ".quarantine-<n>" suffix
// removed.
std::string quarantined_original(const std::string& name) {
  return name.substr(0, name.rfind(".quarantine-"));
}

// scan() is fsck's prediction of recover(): for each kind of damage the
// durable tests inflict, the read-only scan must name the snapshot that
// loads, the journal records that replay, why any journal content is
// dropped, and exactly the files recovery renames aside.
TEST(StateDir, ScanAgreesWithRecover) {
  struct Case {
    const char* name;
    void (*damage)(const std::string& dir);
    // What recover() does, so each case is known to reach its branch.
    bool recoverable;
    std::size_t records;
    std::size_t quarantined;
  };
  const std::string journal_name = "journal.lmj";
  const Case cases[] = {
      {"clean", [](const std::string&) {}, true, 2, 0},
      {"corrupt_newest_snapshot",
       [](const std::string& dir) {
         ASSERT_TRUE(io::storage_fault::bit_flip(newest_snapshot_path(dir),
                                                 io::kSealHeaderSize + 1, 3));
       },
       true, 0, 2},
      {"torn_snapshot",
       [](const std::string& dir) {
         ASSERT_TRUE(io::storage_fault::torn_write(newest_snapshot_path(dir),
                                                   io::kSealHeaderSize + 1));
       },
       true, 0, 2},
      {"torn_journal_tail",
       [](const std::string& dir) {
         const std::string journal = dir + "/journal.lmj";
         ASSERT_TRUE(io::storage_fault::torn_write(
             journal, fs::file_size(journal) - 3));
       },
       true, 1, 0},
      {"stale_journal",
       [](const std::string& dir) {
         // The journal of snapshot 1, left behind by a crash between
         // snapshot 2's rename and the journal reset.
         StateDir older(dir + "/older", fast());
         ASSERT_TRUE(older.write_snapshot("v1").ok());
         ASSERT_TRUE(older.append_journal("stale-delta").ok());
         std::string stale;
         ASSERT_TRUE(
             io::read_file_bytes(dir + "/older/journal.lmj", &stale, nullptr));
         LoadError err;
         ASSERT_TRUE(io::atomic_write_file(dir + "/journal.lmj", stale, false,
                                           &err));
         fs::remove_all(dir + "/older");
       },
       true, 0, 0},
      {"journal_extends_unloadable_snapshot",
       [](const std::string& dir) {
         ASSERT_TRUE(io::storage_fault::bit_flip(newest_snapshot_path(dir), 0,
                                                 1));
       },
       true, 0, 2},
      {"bad_journal_header",
       [](const std::string& dir) {
         ASSERT_TRUE(io::storage_fault::bit_flip(dir + "/journal.lmj", 2, 5));
       },
       true, 0, 1},
      {"every_snapshot_corrupt",
       [](const std::string& dir) {
         for (const auto& snap : StateDir::scan(dir).snapshots) {
           ASSERT_TRUE(io::storage_fault::bit_flip(
               dir + "/" + snap.name, io::kSealHeaderSize + 1, 3));
         }
       },
       false, 0, 2},
      {"empty_directory",
       [](const std::string& dir) {
         fs::remove_all(dir);
         fs::create_directories(dir);
       },
       false, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = state_dir(std::string("agree_") + c.name);
    {
      StateDir state(dir, fast());
      ASSERT_TRUE(state.write_snapshot("v1").ok());
      ASSERT_TRUE(state.append_journal("delta-1").ok());
      ASSERT_TRUE(state.write_snapshot("v2").ok());
      ASSERT_TRUE(state.append_journal("delta-2").ok());
      ASSERT_TRUE(state.append_journal("delta-3").ok());
    }
    c.damage(dir);

    const StateDir::Scan scan = StateDir::scan(dir);
    StateDir state(dir, fast());
    StateDir::Recovered rec;
    const LoadError err = state.recover(&rec);
    EXPECT_EQ(scan.recoverable, err.ok()) << err.to_string();
    EXPECT_EQ(err.ok(), c.recoverable);
    EXPECT_EQ(rec.journal_records.size(), c.records);
    EXPECT_EQ(rec.quarantined.size(), c.quarantined);

    // Recovery loads the newest snapshot that validates and renames aside
    // every invalid one newer than it (all of them when none validates).
    std::vector<std::string> expect_quarantined;
    const StateDir::SnapshotInfo* chosen = nullptr;
    for (const auto& snap : scan.snapshots) {
      if (snap.error.ok()) {
        chosen = &snap;
        break;
      }
      expect_quarantined.push_back(snap.name);
    }
    EXPECT_EQ(chosen != nullptr, scan.recoverable);
    if (chosen != nullptr && err.ok()) {
      EXPECT_EQ(rec.seq, chosen->seq);
      // The journal replays iff it extends the loaded snapshot; a bad
      // header or one extending a newer (unloadable) snapshot is renamed
      // aside; an absent or stale one is simply reset.
      const bool present = scan.journal_present;
      const bool replay = present && scan.journal_header.ok() &&
                          scan.journal_bound_seq == chosen->seq;
      const bool unusable =
          present && (!scan.journal_header.ok() ||
                      scan.journal_bound_seq > chosen->seq);
      const std::size_t expect_records =
          replay ? scan.journal_records.size() : 0;
      LoadError::Code expect_tail = LoadError::Code::kNone;
      if (replay) {
        expect_tail = scan.journal_tail.code;
      } else if (present && !scan.journal_header.ok()) {
        expect_tail = scan.journal_header.code;
      } else if (unusable) {
        expect_tail = LoadError::Code::kMalformed;
      }
      EXPECT_EQ(rec.journal_records.size(), expect_records);
      EXPECT_EQ(rec.journal_tail.code, expect_tail);
      EXPECT_EQ(rec.journal_tail_dropped,
                expect_tail != LoadError::Code::kNone);
      if (unusable) expect_quarantined.push_back(journal_name);
    }
    std::vector<std::string> quarantined;
    for (const std::string& name : rec.quarantined) {
      quarantined.push_back(quarantined_original(name));
    }
    EXPECT_EQ(quarantined, expect_quarantined);
  }
}

// ------------------------------------------------- MachineManager::open

TEST(DurableManager, ReopenRestoresStateAndPendingReports) {
  const std::string dir = state_dir("mgr_reopen");
  const MeshShape shape = MeshShape::cube(2, 6);
  int epoch_before = 0;
  {
    manager::MachineManager mgr(shape);
    mgr.reconfigure();
    mgr.enable_durability(dir, fast());
    mgr.report_node_fault(NodeId{8});
    mgr.degrade_node(NodeId{14}, 0.5);
    mgr.reconfigure();
    // These land in the journal only — the "crash" below loses no data.
    mgr.report_node_fault(NodeId{21});
    mgr.report_link_fault(shape.point(0), 1, Dir::Pos);
    epoch_before = mgr.epoch();
  }  // process dies here

  manager::OpenReport report;
  LoadError err;
  auto mgr = manager::MachineManager::open(dir, {}, 3, &report, &err);
  ASSERT_NE(mgr, nullptr) << err.to_string();
  EXPECT_EQ(mgr->epoch(), epoch_before);
  EXPECT_EQ(report.records_replayed, 2);
  EXPECT_EQ(report.records_rejected, 0);
  EXPECT_TRUE(mgr->has_pending_reports());
  EXPECT_TRUE(mgr->faults().node_faulty(NodeId{8}));
  EXPECT_TRUE(mgr->faults().node_faulty(NodeId{21}));
  EXPECT_TRUE(mgr->faults().link_faulty(shape.point(0), 1, Dir::Pos));
  const auto epoch_report = mgr->reconfigure();
  EXPECT_EQ(epoch_report.epoch, epoch_before + 1);
}

// A snapshot written while reports are pending keeps the epoch's faults
// apart from the pending ones, so the reconfigure after a reopen counts
// the pending reports as new, exactly as the live manager does.
TEST(DurableManager, ReopenCountsPendingReportsAsNew) {
  const std::string dir = state_dir("mgr_pending_new");
  const MeshShape shape = MeshShape::cube(2, 8);
  manager::MachineManager live(shape);
  live.report_node_fault(NodeId{10});
  live.reconfigure();
  live.report_node_fault(NodeId{40});
  live.report_link_fault(shape.point(0), 1, Dir::Pos);
  const manager::EpochReport want = live.reconfigure();
  ASSERT_EQ(want.new_node_faults, 1);
  ASSERT_EQ(want.new_link_faults, 1);

  {
    manager::MachineManager mgr(shape);
    mgr.report_node_fault(NodeId{10});
    mgr.reconfigure();
    mgr.enable_durability(dir, fast());
    mgr.report_node_fault(NodeId{40});
    mgr.report_link_fault(shape.point(0), 1, Dir::Pos);
    mgr.compact();  // the pending reports move from the journal into it
  }
  manager::OpenReport report;
  LoadError err;
  auto mgr = manager::MachineManager::open(dir, {}, 3, &report, &err);
  ASSERT_NE(mgr, nullptr) << err.to_string();
  EXPECT_EQ(report.records_replayed, 0);
  ASSERT_TRUE(mgr->has_pending_reports());
  EXPECT_EQ(mgr->snapshot()->faults.num_node_faults(), 1);
  EXPECT_EQ(mgr->faults().num_node_faults(), 2);
  const manager::EpochReport got = mgr->reconfigure();
  EXPECT_EQ(got.new_node_faults, want.new_node_faults);
  EXPECT_EQ(got.new_link_faults, want.new_link_faults);
  EXPECT_EQ(got.total_faults, want.total_faults);
  EXPECT_EQ(mgr->lambs(), live.lambs());
}

// A link report whose forward direction is already faulty (a restored
// directed fault) still blocks the reverse direction, so it must be
// journaled: a crash before the next reconfigure must not lose it.
TEST(DurableManager, ReportOverDirectedFaultSurvivesReopen) {
  const std::string dir = state_dir("mgr_half_dead_link");
  const MeshShape shape = MeshShape::cube(2, 8);
  const Point from{0, 0};
  const Point to{1, 0};
  {
    manager::MachineManager mgr(shape);
    mgr.reconfigure();
    manager::Checkpoint directed = mgr.checkpoint();
    directed.link_faults.push_back(LinkFault{from, 0, Dir::Pos, false});
    mgr.restore(directed);
    mgr.reconfigure();
    mgr.enable_durability(dir, fast());
    ASSERT_TRUE(mgr.faults().link_faulty(from, 0, Dir::Pos));
    ASSERT_FALSE(mgr.faults().link_faulty(to, 0, Dir::Neg));

    mgr.report_link_fault(from, 0, Dir::Pos);
    EXPECT_TRUE(mgr.faults().link_faulty(to, 0, Dir::Neg));
    EXPECT_EQ(mgr.faults().num_link_faults(), 2);
  }  // process dies here, before any reconfigure

  manager::OpenReport report;
  LoadError err;
  auto mgr = manager::MachineManager::open(dir, {}, 3, &report, &err);
  ASSERT_NE(mgr, nullptr) << err.to_string();
  EXPECT_EQ(report.records_replayed, 1);
  EXPECT_TRUE(mgr->has_pending_reports());
  EXPECT_TRUE(mgr->faults().link_faulty(from, 0, Dir::Pos));
  EXPECT_TRUE(mgr->faults().link_faulty(to, 0, Dir::Neg));
  EXPECT_EQ(mgr->faults().num_link_faults(), 2);
}

TEST(DurableManager, ReplaysReconfigureIntentAfterMidSolveCrash) {
  const std::string dir = state_dir("mgr_intent");
  const MeshShape shape = MeshShape::cube(2, 6);

  // Reference: the uninterrupted run.
  manager::MachineManager reference(shape);
  reference.reconfigure();
  reference.report_node_fault(NodeId{9});
  reference.reconfigure();

  std::string journal_before;
  {
    manager::MachineManager mgr(shape);
    mgr.reconfigure();
    mgr.enable_durability(dir, fast());
    mgr.report_node_fault(NodeId{9});
    ASSERT_TRUE(io::read_file_bytes(dir + "/journal.lmj", &journal_before,
                                    nullptr));
    mgr.reconfigure();  // journals intent, solves, snapshots, resets
  }
  // Rewind the directory to "crashed mid-reconfigure": the new snapshot
  // never landed, the journal ends with the intent record.
  fs::remove(newest_snapshot_path(dir));
  io::ByteWriter intent;
  intent.u8(4);  // kRecReconfigure
  intent.i32(2);
  io::append_record_frame(&journal_before, intent.data());
  LoadError err;
  ASSERT_TRUE(io::atomic_write_file(dir + "/journal.lmj", journal_before,
                                    false, &err));

  manager::OpenReport report;
  auto mgr = manager::MachineManager::open(dir, {}, 3, &report, &err);
  ASSERT_NE(mgr, nullptr) << err.to_string();
  EXPECT_EQ(report.reconfigures_replayed, 1);
  EXPECT_TRUE(report.compacted);
  EXPECT_EQ(mgr->epoch(), reference.epoch());
  EXPECT_EQ(mgr->lambs(), reference.lambs());
  EXPECT_FALSE(mgr->has_pending_reports());
}

TEST(DurableManager, RouteVendingIsDeterministicAcrossReopen) {
  const std::string dir = state_dir("mgr_routes");
  const MeshShape shape = MeshShape::cube(2, 8);

  auto vend = [](manager::MachineManager& mgr, Rng& rng, int n) {
    std::string trace;
    const auto survivors = mgr.survivors();
    for (int i = 0; i < n; ++i) {
      const NodeId src = survivors[rng.below(survivors.size())];
      const NodeId dst = survivors[rng.below(survivors.size())];
      const auto route = mgr.route(src, dst, rng);
      if (route) {
        trace += std::to_string(route->length());
        for (NodeId via : route->intermediates) {
          trace += "," + std::to_string(via);
        }
      }
      trace += ";";
    }
    return trace;
  };

  manager::MachineManager reference(shape);
  reference.reconfigure();
  reference.report_node_fault(NodeId{17});
  reference.report_node_fault(NodeId{44});
  reference.reconfigure();
  Rng reference_rng(2026);
  const std::string leg1 = vend(reference, reference_rng, 20);
  const std::string leg2 = vend(reference, reference_rng, 20);

  manager::MachineManager crashing(shape);
  crashing.reconfigure();
  crashing.enable_durability(dir, fast());
  crashing.report_node_fault(NodeId{17});
  crashing.report_node_fault(NodeId{44});
  crashing.reconfigure();
  Rng rng(2026);
  ASSERT_EQ(vend(crashing, rng, 20), leg1);
  // Mid-epoch crash: persist the vending state, kill, reopen, resume.
  crashing.compact();
  const auto rng_state = rng.state();

  auto reopened = manager::MachineManager::open(dir);
  ASSERT_NE(reopened, nullptr);
  Rng resumed_rng(0);
  resumed_rng.set_state(rng_state);
  EXPECT_EQ(vend(*reopened, resumed_rng, 20), leg2);
}

TEST(DurableManager, HostileStateDirNeverThrows) {
  const MeshShape shape = MeshShape::cube(2, 5);
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const std::string dir =
        state_dir("mgr_hostile_" + std::to_string(trial));
    {
      manager::MachineManager mgr(shape);
      mgr.reconfigure();
      mgr.enable_durability(dir, fast());
      mgr.report_node_fault(NodeId{3});
      mgr.reconfigure();
      mgr.report_node_fault(NodeId{5});
    }
    // Corrupt something: a bit flip or torn write in a random file.
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path().string());
    }
    ASSERT_FALSE(files.empty());
    const std::string& victim = files[rng.below(files.size())];
    const std::uint64_t size = fs::file_size(victim);
    if (size == 0) continue;
    if (rng.bernoulli(0.5)) {
      ASSERT_TRUE(io::storage_fault::bit_flip(victim, rng.below(size),
                                              static_cast<int>(rng.below(8))));
    } else {
      ASSERT_TRUE(io::storage_fault::torn_write(victim, rng.below(size)));
    }

    manager::OpenReport report;
    LoadError err;
    std::unique_ptr<manager::MachineManager> mgr;
    ASSERT_NO_THROW(
        mgr = manager::MachineManager::open(dir, {}, 3, &report, &err));
    if (mgr != nullptr) {
      // Whatever prefix we landed on must be internally consistent.
      EXPECT_GE(mgr->epoch(), 1);
      EXPECT_NO_THROW(mgr->reconfigure());
    } else {
      EXPECT_FALSE(err.ok());
    }
  }
}

TEST(DurableManager, RefusesSnapshotSealedAtVersion2) {
  // Version 2 snapshots carried one more EpochReport field than this
  // build decodes, and version 3 ones a Checkpoint with a `rounds` field
  // and no pending fault lists. The seal must stop such a file with a
  // typed error before any of its payload is read as the current layout.
  for (const std::uint32_t version : {2u, 3u}) {
    SCOPED_TRACE(version);
    const std::string dir =
        state_dir("mgr_v" + std::to_string(version) + "_snapshot");
    const MeshShape shape = MeshShape::cube(2, 6);
    {
      manager::MachineManager mgr(shape);
      mgr.reconfigure();
      mgr.report_node_fault(NodeId{8});
      mgr.reconfigure();  // history holds a second EpochReport
      mgr.enable_durability(dir, fast());
    }
    const std::string path = newest_snapshot_path(dir);
    std::string file;
    ASSERT_TRUE(io::read_file_bytes(path, &file, nullptr));
    const std::string old = io::seal(
        "LAMBSNAP", version,
        std::string_view(file).substr(io::kSealHeaderSize));
    LoadError err;
    ASSERT_TRUE(io::atomic_write_file(path, old, false, &err));

    const StateDir::Scan scan = StateDir::scan(dir);
    ASSERT_EQ(scan.snapshots.size(), 1u);
    EXPECT_EQ(scan.snapshots.front().error.code,
              LoadError::Code::kBadVersion);
    EXPECT_FALSE(scan.recoverable);

    manager::OpenReport report;
    std::unique_ptr<manager::MachineManager> mgr;
    ASSERT_NO_THROW(
        mgr = manager::MachineManager::open(dir, {}, 3, &report, &err));
    EXPECT_EQ(mgr, nullptr);
    EXPECT_EQ(err.code, LoadError::Code::kBadVersion);
  }
}

TEST(DurableManager, RejectsHostileJournalRecordAndCompacts) {
  const std::string dir = state_dir("mgr_bad_record");
  const MeshShape shape = MeshShape::cube(2, 5);
  {
    manager::MachineManager mgr(shape);
    mgr.reconfigure();
    mgr.enable_durability(dir, fast());
    mgr.report_node_fault(NodeId{3});
  }
  // A record with a valid frame CRC but hostile content: node id far
  // outside the mesh. Replay must reject it, not throw.
  std::string journal;
  ASSERT_TRUE(io::read_file_bytes(dir + "/journal.lmj", &journal, nullptr));
  io::ByteWriter bad;
  bad.u8(1);  // kRecNodeFault
  bad.i64(NodeId{999999});
  io::append_record_frame(&journal, bad.data());
  LoadError err;
  ASSERT_TRUE(io::atomic_write_file(dir + "/journal.lmj", journal, false,
                                    &err));

  manager::OpenReport report;
  auto mgr = manager::MachineManager::open(dir, {}, 3, &report, &err);
  ASSERT_NE(mgr, nullptr) << err.to_string();
  EXPECT_EQ(report.records_replayed, 1);
  EXPECT_EQ(report.records_rejected, 1);
  EXPECT_TRUE(report.compacted);
  EXPECT_TRUE(mgr->faults().node_faulty(NodeId{3}));
}

}  // namespace
}  // namespace lamb
