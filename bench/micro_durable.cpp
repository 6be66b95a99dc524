// Durability microbenchmark: what crash-safe state costs.
//
// The headline gate is the empty-journal hot path: a full RecoveryDriver
// epoch on the abl07 workload (M_3(8), 2-round XYZ, uniform survivor
// traffic) with durability off, with it on minus fsync (process-death
// failure model), and with full fsync (power-loss model). Route vending
// and the simulator never touch the journal, so the no-fsync overhead
// must stay small (the gate in BENCH_durable.json allows 25%: a few
// percent of real tax plus per-process timing noise — an fsync leaking
// onto the hot path shows up as +50% or worse). The io-layer rows price
// the
// individual durable operations: sealed snapshot writes, framed journal
// appends, and a full MachineManager::open recovery.
//
// With --json PATH the results are written as a JSON document.
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
  double seconds = 0.0;    // per run/op, best of reps
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

// The three epoch rows are timed interleaved, rep by rep
// (best_of_interleaved), so a load spike hits every durability mode
// instead of biasing whichever row happened to be running; each row
// keeps its best rep. The gated no-fsync overhead is a ratio of two
// best-of-N times — sequencing the modes makes that ratio swing with
// scheduler noise.
std::vector<Result> time_epochs(std::int64_t messages, int reps) {
  struct ModeSpec {
    const char* name;
    Durability mode;
  };
  const ModeSpec specs[] = {
      {"epoch_ephemeral", Durability::kOff},
      {"epoch_durable_nofsync", Durability::kNoFsync},
      {"epoch_durable_fsync", Durability::kFsync},
  };
  std::vector<Result> out(std::size(specs));
  const std::vector<double> best =
      best_of_interleaved(reps, out.size(), [&](std::size_t i) {
        return run_epoch_once(specs[i].mode, messages, &out[i].ops);
      });
  for (std::size_t i = 0; i < out.size(); ++i) {
    Result& res = out[i];
    res.mode = specs[i].name;
    res.seconds = best[i];
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
                double nofsync_pct, double fsync_pct) {
  support::BenchDoc doc("bench", "micro_durable");
  doc.fields({{"workload",
               "abl07 uniform, M_3(8), 2 rounds, 2 VCs, 8-flit messages; "
               "storm = 3 node + 1 link kills"},
              {"durable_nofsync_overhead_pct", nofsync_pct},
              {"durable_fsync_overhead_pct", fsync_pct}})
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
  // per-process layout noise a 60ms epoch carries even on an idle
  // machine.
  doc.gate_max("durable_nofsync_overhead_pct", 25.0).write(path);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const std::string json_path = args.get("json");

  const int reps = 5;
  // ~2000 messages puts an epoch around 60ms, long enough that a
  // millisecond scheduler spike cannot swing the gated overhead ratio.
  const std::int64_t messages = scaled_trials(2000);
  std::printf("micro_durable: %lld-message recovery epochs, best of %d "
              "interleaved runs each\n\n",
              static_cast<long long>(messages), reps);

  std::vector<Result> results = time_epochs(messages, reps);
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

  const double base = results[0].seconds;
  const double nofsync_pct =
      base > 0 ? (results[1].seconds / base - 1.0) * 100.0 : 0.0;
  const double fsync_pct =
      base > 0 ? (results[2].seconds / base - 1.0) * 100.0 : 0.0;

  for (const Result& r : results) {
    std::printf("  %-24s %12.6f s  %14.0f ops/s", r.mode.c_str(), r.seconds,
                r.ops_per_s);
    if (r.bytes > 0) std::printf("  (%lld bytes)", (long long)r.bytes);
    std::printf("\n");
  }
  std::printf("\n  durable epoch overhead vs ephemeral: %+.1f%% (no fsync), "
              "%+.1f%% (fsync)\n",
              nofsync_pct, fsync_pct);

  if (!json_path.empty()) write_json(json_path, results, nofsync_pct,
                                     fsync_pct);
  return 0;
}
