// Durability microbenchmark: what crash-safe state costs.
//
// The headline gate is the empty-journal hot path: a full RecoveryDriver
// epoch on the abl07 workload (M_3(8), 2-round XYZ, uniform survivor
// traffic) with durability off, with it on minus fsync (process-death
// failure model), and with full fsync (power-loss model). Route vending
// and the simulator never touch the journal, so the no-fsync overhead
// must stay small (the gate in BENCH_durable.json allows 25%: a few
// percent of real tax plus per-process timing noise — an fsync leaking
// onto the hot path shows up as +50% or worse). Both epoch overheads are
// medians over order-alternating pairs, written with their interquartile
// ranges. The io-layer rows price the individual durable operations:
// sealed snapshot writes, framed journal appends, and a full
// MachineManager::open recovery, each the best of a few runs.
//
// With --json PATH the results are written as a JSON document.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/cli_args.hpp"
#include "io/durable.hpp"
#include "manager/machine_manager.hpp"
#include "manager/recovery.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "wormhole/fault_schedule.hpp"

using namespace lamb;

namespace {

namespace fs = std::filesystem;

struct Result {
  std::string mode;
  double seconds = 0.0;    // per run/op, best run
  double ops_per_s = 0.0;  // epochs, snapshots, appends, or opens per sec
  std::int64_t ops = 0;    // timed operations per run
  std::int64_t bytes = 0;  // payload bytes per operation (io rows)
};

enum class Durability { kOff, kNoFsync, kFsync };

std::string scratch_dir(const char* leaf) {
  const fs::path dir = fs::temp_directory_path() / "lambmesh-micro-durable";
  fs::remove_all(dir);
  return (dir / leaf).string();
}

io::DurableOptions durable_options(Durability mode) {
  io::DurableOptions options;
  options.fsync = mode == Durability::kFsync;
  return options;
}

// One RecoveryDriver epoch of the abl07 workload, durability as asked.
// Returns the epoch wall time; `ops` receives the delivered count.
double run_epoch_once(Durability mode, std::int64_t messages,
                      std::int64_t* ops) {
  Rng rng(default_seed());
  const MeshShape shape = MeshShape::cube(3, 8);
  manager::MachineManager mgr(shape);
  if (mode != Durability::kOff) {
    const std::string dir = scratch_dir("epoch");
    mgr.enable_durability(dir, durable_options(mode));
  }
  const FaultSet initial = FaultSet::random_nodes(shape, 8, rng);
  for (NodeId id : initial.node_faults()) mgr.report_node_fault(id);
  mgr.reconfigure();
  manager::RecoveryDriver driver(mgr, manager::RecoveryOptions{});

  const std::vector<NodeId> survivors = mgr.survivors();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (static_cast<std::int64_t>(pairs.size()) < messages) {
    const NodeId src =
        survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
    const NodeId dst =
        survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
    if (src != dst) pairs.push_back({src, dst});
  }
  const wormhole::FaultSchedule storm = wormhole::FaultSchedule::
      random_storm(shape, mgr.faults(), 3, 1, 300, rng);

  Stopwatch watch;
  const auto out = driver.run_epoch(std::move(pairs), storm, rng);
  const double s = watch.seconds();
  *ops = out.messages_delivered;
  return s;
}

// Each durable epoch row is timed against the ephemeral epoch over
// order-alternating pairs (paired_overhead, support/stats.hpp), and its
// overhead is the median of the per-pair durable/ephemeral time ratios,
// with their interquartile range beside it. A load spike then moves one
// pair's ratio instead of either side's best-of-N time. Each row keeps
// its best run; the ephemeral row its best over both comparisons.
struct EpochRows {
  std::vector<Result> rows;  // ephemeral, durable no-fsync, durable fsync
  PairedOverhead nofsync;
  PairedOverhead fsync;
};

EpochRows time_epochs(std::int64_t messages, int pairs) {
  EpochRows out;
  out.rows = {{"epoch_ephemeral"},
              {"epoch_durable_nofsync"},
              {"epoch_durable_fsync"}};
  auto overhead_of = [&](Durability mode, Result* durable) {
    return paired_overhead(pairs, [&](int v) {
      return v == 0 ? run_epoch_once(Durability::kOff, messages,
                                     &out.rows[0].ops)
                    : run_epoch_once(mode, messages, &durable->ops);
    });
  };
  out.nofsync = overhead_of(Durability::kNoFsync, &out.rows[1]);
  out.fsync = overhead_of(Durability::kFsync, &out.rows[2]);
  out.rows[0].seconds = std::min(out.nofsync.best[0], out.fsync.best[0]);
  out.rows[1].seconds = out.nofsync.best[1];
  out.rows[2].seconds = out.fsync.best[1];
  for (Result& res : out.rows) {
    res.ops_per_s =
        res.seconds > 0 ? static_cast<double>(res.ops) / res.seconds : 0.0;
  }
  return out;
}

// Sets up a configured durable manager in `dir` and returns it.
std::unique_ptr<manager::MachineManager> durable_manager(
    const std::string& dir, Durability mode) {
  Rng rng(default_seed());
  const MeshShape shape = MeshShape::cube(3, 8);
  auto mgr = std::make_unique<manager::MachineManager>(shape);
  mgr->enable_durability(dir, durable_options(mode));
  const FaultSet initial = FaultSet::random_nodes(shape, 8, rng);
  for (NodeId id : initial.node_faults()) mgr->report_node_fault(id);
  mgr->reconfigure();
  return mgr;
}

// Sealed snapshot write + journal reset + prune, via compact().
Result time_snapshots(const char* name, Durability mode, int per_rep,
                      int reps) {
  const std::string dir = scratch_dir("snap");
  auto mgr = durable_manager(dir, mode);
  Result res;
  res.mode = name;
  res.seconds = best_of_interleaved(reps, 1, [&](std::size_t) {
    Stopwatch watch;
    for (int i = 0; i < per_rep; ++i) mgr->compact();
    return watch.seconds() / per_rep;
  })[0];
  res.ops = per_rep;
  res.ops_per_s = res.seconds > 0 ? 1.0 / res.seconds : 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".lms") {
      res.bytes = static_cast<std::int64_t>(entry.file_size());
      break;
    }
  }
  return res;
}

// Raw framed journal appends against the io layer.
Result time_journal(const char* name, Durability mode, int per_rep,
                    int reps) {
  const std::string dir = scratch_dir("journal");
  io::StateDir state(dir, durable_options(mode));
  state.write_snapshot("micro_durable journal bench");
  const std::string record(24, 'r');  // ~ a link-fault record frame
  Result res;
  res.mode = name;
  res.seconds = best_of_interleaved(reps, 1, [&](std::size_t) {
    Stopwatch watch;
    for (int i = 0; i < per_rep; ++i) state.append_journal(record);
    return watch.seconds() / per_rep;
  })[0];
  res.ops = per_rep;
  res.ops_per_s = res.seconds > 0 ? 1.0 / res.seconds : 0.0;
  res.bytes = static_cast<std::int64_t>(record.size());
  return res;
}

// Full restart recovery: snapshot load + journal replay + route rebuild.
Result time_open(const char* name, int journal_records, int reps) {
  const std::string dir = scratch_dir("open");
  {
    auto mgr = durable_manager(dir, Durability::kNoFsync);
    // Leave a journal tail behind the snapshot: degrade records replay
    // without re-solving, isolating recovery cost from solver cost.
    for (int i = 0; i < journal_records; ++i) {
      mgr->degrade_node(NodeId{100 + i % 50}, 0.25);
    }
  }
  Result res;
  res.mode = name;
  res.seconds = best_of_interleaved(reps, 1, [&](std::size_t) {
    Stopwatch watch;
    auto reopened = manager::MachineManager::open(dir);
    const double s = watch.seconds();
    if (reopened == nullptr) {
      std::fprintf(stderr, "open failed during %s\n", name);
      std::exit(1);
    }
    return s;
  })[0];
  res.ops = journal_records;
  res.ops_per_s = res.seconds > 0 ? 1.0 / res.seconds : 0.0;
  return res;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                int pairs, const PairedOverhead& nofsync,
                const PairedOverhead& fsync) {
  support::BenchDoc doc("bench", "micro_durable");
  doc.fields({{"workload",
               "abl07 uniform, M_3(8), 2 rounds, 2 VCs, 8-flit messages; "
               "storm = 3 node + 1 link kills"},
              {"overhead_pairs", pairs},
              {"durable_nofsync_overhead_pct", nofsync.median_pct},
              {"durable_nofsync_overhead_iqr_pct", nofsync.iqr_pct},
              {"durable_fsync_overhead_pct", fsync.median_pct},
              {"durable_fsync_overhead_iqr_pct", fsync.iqr_pct}})
      .array("results");
  for (const Result& r : results) {
    doc.record({{"mode", r.mode}, {"seconds", r.seconds},
                {"ops_per_s", r.ops_per_s}, {"ops", r.ops},
                {"bytes", r.bytes}});
  }
  doc.end();
  // The true no-fsync tax is a few percent (buffered journal appends);
  // the gate's job is to catch an fsync leaking onto the hot path, which
  // shows up as +50% or worse. 25% leaves headroom for the ±8%
  // per-process layout noise a short epoch carries even on an idle
  // machine. The fsync overhead depends on the disk and is not gated.
  doc.gate_max("durable_nofsync_overhead_pct", 25.0).write(path);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const std::string json_path = args.get("json");

  const int reps = 5;
  const int pairs = 31;
  // ~2000 messages puts an epoch at 9-60 ms, depending on the host; a
  // scheduler spike moves one pair's ratio, and the median of 31 pairs
  // holds.
  const std::int64_t messages = scaled_trials(2000);
  std::printf("micro_durable: %lld-message recovery epochs, median of %d "
              "order-alternating pairs per overhead; io rows best of %d "
              "runs\n\n",
              static_cast<long long>(messages), pairs, reps);

  const EpochRows epochs = time_epochs(messages, pairs);
  std::vector<Result> results = epochs.rows;
  results.push_back(
      time_snapshots("snapshot_write_nofsync", Durability::kNoFsync,
                     /*per_rep=*/50, reps));
  results.push_back(time_snapshots("snapshot_write_fsync",
                                   Durability::kFsync, /*per_rep=*/10,
                                   reps));
  results.push_back(time_journal("journal_append_nofsync",
                                 Durability::kNoFsync, /*per_rep=*/2000,
                                 reps));
  results.push_back(time_journal("journal_append_fsync", Durability::kFsync,
                                 /*per_rep=*/100, reps));
  results.push_back(time_open("open_replay_100", /*journal_records=*/100,
                              reps));

  for (const Result& r : results) {
    std::printf("  %-24s %12.6f s  %14.0f ops/s", r.mode.c_str(), r.seconds,
                r.ops_per_s);
    if (r.bytes > 0) std::printf("  (%lld bytes)", (long long)r.bytes);
    std::printf("\n");
  }
  std::printf("\n  durable epoch overhead vs ephemeral: %+.1f%% (IQR %.1f) "
              "no fsync, %+.1f%% (IQR %.1f) fsync\n",
              epochs.nofsync.median_pct, epochs.nofsync.iqr_pct,
              epochs.fsync.median_pct, epochs.fsync.iqr_pct);

  if (!json_path.empty()) {
    write_json(json_path, results, pairs, epochs.nofsync, epochs.fsync);
  }
  return 0;
}
