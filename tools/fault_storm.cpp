// fault_storm — deterministic chaos harness for the recovery loop.
//
// Each trial builds a mesh with a seeded initial fault set, configures a
// MachineManager, and drives several application epochs of survivor
// traffic through the wormhole simulator while a seeded FaultSchedule
// kills nodes and links mid-flight. The RecoveryDriver must complete
// every epoch — roll back, report the applied faults, reconfigure,
// replay — with zero undelivered survivor-to-survivor messages. Any
// incomplete epoch fails the trial and the process exits nonzero, which
// is what the CI chaos-smoke job gates on (running this binary under
// ASan+UBSan).
//
// The run is bit-deterministic in --seed at any --threads value; the
// printed digest folds every trial's outcome numbers, so two runs agree
// iff their digests agree.
//
// With --state DIR the run is additionally crash-safe: the manager keeps
// its durable snapshot+journal under DIR/machine, and a sealed
// DIR/progress.lmp records the epoch-boundary resume point (trial/epoch
// counters, digest, totals, trial rng state, manager checkpoint). Kill
// the process at ANY moment and rerun the same command: it recovers via
// MachineManager::open, rewinds to the last epoch boundary, and finishes
// with the same digest an uninterrupted run prints. Rerunning a
// completed run prints the persisted digest and exits 0.
//
// Examples:
//   fault_storm run --trials 25 --seed 7
//   fault_storm run --mesh 16x16 --epochs 4 --node-kills 3 --link-kills 2
//   fault_storm run --trials 5 --budget 1e-6   # exercise degradation
//   fault_storm run --trials 8 --state /tmp/storm-state
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/binary_format.hpp"
#include "io/cli_args.hpp"
#include "io/durable.hpp"
#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "manager/recovery.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/fnv1a.hpp"
#include "support/json.hpp"
#include "support/quantiles.hpp"
#include "support/rng.hpp"
#include "wormhole/fault_schedule.hpp"

using namespace lamb;

namespace {

using Args = io::CliArgs;

constexpr io::Command kCommands[] = {
    {"run", "seeded trials of live fault storms under the recovery loop"}};

constexpr unsigned kRun = 1;

constexpr io::Flag kFlags[] = {
    {"mesh", "WxH..", kRun, "geometry (8x8), 't' suffix for torus"},
    {"trials", "N", kRun, "independent seeded trials (25)"},
    {"seed", "S", kRun, "master seed (20020416)"},
    {"initial-faults", "F", kRun, "static faults before epoch 1 (6)"},
    {"epochs", "E", kRun, "application epochs per trial (3)"},
    {"messages", "M", kRun, "survivor pairs per epoch (64)"},
    {"node-kills", "K", kRun, "live node kills per epoch storm (2)"},
    {"link-kills", "L", kRun, "live link kills per epoch storm (1)"},
    {"horizon", "C", kRun, "storm cycle horizon per epoch (400)"},
    {"flits", "F", kRun, "flits per message (8)"},
    {"max-attempts", "A", kRun, "recovery retry bound per epoch (8)"},
    {"budget", "SECS", kRun, "solver budget; 0 = unlimited (0)"},
    {"state", "DIR", kRun,
     "crash-safe mode: persist progress and the manager's\n"
     "                        durable state under DIR; rerunning resumes\n"
     "                        after a kill"},
    {"json", "PATH", kRun,
     "write outcome totals, digest, and the reconfigure-\n"
     "                        latency percentiles as JSON"},
    {"verbose", "", kRun, "per-epoch log lines"},
    io::kTelemetryFlag,
    io::kFlightFlag,
};

constexpr io::CliSpec kCli{kCommands, kFlags,
                           "Defaults in parens. The result is identical at "
                           "any --threads value."};

// FNV-1a over the outcome numbers: a stable fingerprint of the whole run
// that two invocations (any thread count) can be compared by.
using Digest = support::Fnv1a;

// Nearest-rank percentile (shared support::quantiles implementation;
// copies because the caller keeps insertion order for the per-epoch
// log).
double percentile(const std::vector<double>& xs, double pct) {
  return support::quantile(xs, pct / 100.0);
}

struct TrialTotals {
  std::int64_t attempts = 0;
  std::int64_t rollbacks = 0;
  std::int64_t reconfigures = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::int64_t unroutable = 0;
  std::int64_t replayed = 0;
  std::int64_t degraded_epochs = 0;
  std::int64_t failures = 0;
};

// ------------------------------------------------- durable progress file
//
// Sealed ("LAMBPROG") epoch-boundary resume point. next_epoch is the
// epoch about to run: in [1, epochs) the checkpoint + rng state rewind
// the current trial; >= epochs the next trial starts from its own seed.
// The payload embeds a manager::Checkpoint, so the version must move
// whenever the snapshot codec's does (3: the snapshot's version 4).
constexpr std::uint32_t kProgressVersion = 3;

struct Progress {
  bool complete = false;
  std::int64_t next_trial = 0;
  std::int64_t next_epoch = 0;
  std::uint64_t digest = 0;
  TrialTotals totals;
  std::array<std::uint64_t, 4> rng_state{};
  bool has_checkpoint = false;
  manager::Checkpoint checkpoint;
};

std::string encode_progress(const Progress& p, std::uint64_t fingerprint,
                            const MeshShape& shape) {
  io::ByteWriter w;
  w.u64(fingerprint);
  w.u8(p.complete ? 1 : 0);
  w.i64(p.next_trial);
  w.i64(p.next_epoch);
  w.u64(p.digest);
  w.i64(p.totals.attempts);
  w.i64(p.totals.rollbacks);
  w.i64(p.totals.reconfigures);
  w.i64(p.totals.delivered);
  w.i64(p.totals.dropped);
  w.i64(p.totals.unroutable);
  w.i64(p.totals.replayed);
  w.i64(p.totals.degraded_epochs);
  w.i64(p.totals.failures);
  for (std::uint64_t word : p.rng_state) w.u64(word);
  w.u8(p.has_checkpoint ? 1 : 0);
  if (p.has_checkpoint) manager::encode_machine_state(w, shape, p.checkpoint);
  return io::seal("LAMBPROG", kProgressVersion, w.data());
}

// Returns false on any corruption (treated as a fresh start — the digest
// is reproducible from scratch); sets *config_mismatch when the file is
// intact but belongs to a different parameterisation.
bool decode_progress(std::string_view bytes, std::uint64_t fingerprint,
                     const MeshShape& shape, Progress* out,
                     bool* config_mismatch) {
  std::string_view payload;
  if (!io::unseal(bytes, "LAMBPROG", kProgressVersion, &payload).ok()) {
    return false;
  }
  io::ByteReader r(payload);
  std::uint64_t fp = 0;
  std::uint8_t complete = 0, has_checkpoint = 0;
  if (!r.u64(&fp)) return false;
  if (fp != fingerprint) {
    *config_mismatch = true;
    return false;
  }
  if (!r.u8(&complete) || complete > 1) return false;
  out->complete = complete == 1;
  if (!r.i64(&out->next_trial) || !r.i64(&out->next_epoch) ||
      !r.u64(&out->digest)) {
    return false;
  }
  if (!r.i64(&out->totals.attempts) || !r.i64(&out->totals.rollbacks) ||
      !r.i64(&out->totals.reconfigures) || !r.i64(&out->totals.delivered) ||
      !r.i64(&out->totals.dropped) || !r.i64(&out->totals.unroutable) ||
      !r.i64(&out->totals.replayed) ||
      !r.i64(&out->totals.degraded_epochs) || !r.i64(&out->totals.failures)) {
    return false;
  }
  for (std::uint64_t& word : out->rng_state) {
    if (!r.u64(&word)) return false;
  }
  if (!r.u8(&has_checkpoint) || has_checkpoint > 1) return false;
  out->has_checkpoint = has_checkpoint == 1;
  if (!out->has_checkpoint) return r.expect_end();
  // The machine state runs to the end of the payload.
  manager::MachineState saved;
  if (!manager::decode_machine_state(payload.substr(r.pos()), &saved).ok() ||
      saved.shape->to_string() != shape.to_string()) {
    return false;
  }
  out->checkpoint = std::move(saved.checkpoint);
  return true;
}

int cmd_run(const Args& args) {
  const MeshShape shape = io::parse_geometry(args.get("mesh", "8x8"));
  const long trials = args.get_long("trials", 25);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 20020416));
  const long initial_faults = args.get_long("initial-faults", 6);
  const long epochs = args.get_long("epochs", 3);
  const long messages = args.get_long("messages", 64);
  const long node_kills = args.get_long("node-kills", 2);
  const long link_kills = args.get_long("link-kills", 1);
  const long horizon = args.get_long("horizon", 400);
  const bool verbose = args.has("verbose");
  const std::string state_dir = args.get("state", "");
  const std::string json_path = args.get("json", "");
  // Closing-reconfigure latency of every completed epoch, in process
  // order. Timing is measurement, not outcome: the percentiles are
  // reported beside the digest but never mixed into it (a resumed run
  // only samples the epochs it ran itself).
  std::vector<double> reconfigure_seconds;

  LambOptions lamb_options;
  lamb_options.budget_seconds = args.get_double("budget", 0.0);

  manager::RecoveryOptions recovery_options;
  recovery_options.message_flits =
      args.get_int("flits", 8);
  recovery_options.max_attempts =
      args.get_int("max-attempts", 8);
  recovery_options.sim.telemetry = obs::default_telemetry();

  std::printf("fault_storm: %s, %ld trials, %ld epochs x %ld messages, "
              "storm %ld node + %ld link kills / %ld cycles\n",
              shape.to_string().c_str(), trials, epochs, messages,
              node_kills, link_kills, horizon);

  // Config fingerprint: a state dir can only resume the run that made it.
  Digest config;
  for (const char c : shape.to_string()) config.mix(c);
  for (const long v : {trials, initial_faults, epochs, messages, node_kills,
                       link_kills, horizon,
                       static_cast<long>(recovery_options.message_flits),
                       static_cast<long>(recovery_options.max_attempts)}) {
    config.mix(v);
  }
  config.mix(static_cast<std::int64_t>(seed));
  std::uint64_t budget_bits = 0;
  std::memcpy(&budget_bits, &lamb_options.budget_seconds,
              sizeof(budget_bits));
  config.mix(static_cast<std::int64_t>(budget_bits));
  const std::uint64_t fingerprint = config.h;

  namespace fs = std::filesystem;
  const std::string progress_path =
      state_dir.empty() ? "" : state_dir + "/progress.lmp";
  const std::string machine_dir =
      state_dir.empty() ? "" : state_dir + "/machine";

  Rng master(seed);
  Digest digest;
  TrialTotals totals;
  Rng rng(0);  // per-trial generator, (re)seeded below
  long start_trial = 0;
  long start_epoch = 0;
  std::unique_ptr<manager::MachineManager> resumed;

  if (!state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(state_dir, ec);
    std::string bytes;
    Progress saved;
    bool config_mismatch = false;
    if (io::read_file_bytes(progress_path, &bytes, nullptr) &&
        decode_progress(bytes, fingerprint, shape, &saved,
                        &config_mismatch)) {
      if (saved.complete) {
        std::printf("digest: %016llx\n",
                    static_cast<unsigned long long>(saved.digest));
        if (saved.totals.failures > 0) {
          std::printf("FAILED: %lld epoch(s) incomplete (persisted)\n",
                      static_cast<long long>(saved.totals.failures));
          return 1;
        }
        std::printf("OK (already complete)\n");
        return 0;
      }
      digest.h = saved.digest;
      totals = saved.totals;
      start_trial = saved.next_trial;
      start_epoch = saved.next_epoch;
      if (start_epoch >= epochs) {
        // The trial finished; the next one rebuilds from its own seed.
        ++start_trial;
        start_epoch = 0;
      } else if (saved.has_checkpoint) {
        // Mid-trial: recover the durable manager (exercising the crash
        // path), then rewind to the epoch boundary the progress file
        // describes — the machine dir may have advanced past it before
        // the crash.
        manager::OpenReport open_report;
        io::LoadError open_err;
        resumed = manager::MachineManager::open(
            machine_dir, lamb_options, /*max_rounds=*/3, &open_report,
            &open_err);
        if (resumed == nullptr) {
          std::fprintf(stderr, "error: cannot recover %s: %s\n",
                       machine_dir.c_str(), open_err.to_string().c_str());
          return 1;
        }
        resumed->restore(saved.checkpoint);
        rng.set_state(saved.rng_state);
        std::printf("resumed: trial %ld epoch %ld (snapshot seq %llu, "
                    "%lld journal records replayed)\n",
                    start_trial, start_epoch + 1,
                    static_cast<unsigned long long>(
                        open_report.snapshot_seq),
                    static_cast<long long>(open_report.records_replayed));
      } else {
        // Mid-trial progress without a checkpoint should not exist; the
        // only safe interpretation is a full restart (the digest is
        // reproducible from the seed).
        digest = Digest{};
        totals = TrialTotals{};
        start_trial = 0;
        start_epoch = 0;
      }
    } else if (config_mismatch) {
      std::fprintf(stderr,
                   "error: %s belongs to a run with different parameters; "
                   "use a fresh --state directory\n",
                   progress_path.c_str());
      return 2;
    }
  }

  const auto save_progress = [&](long next_trial, long next_epoch,
                                 bool complete,
                                 manager::MachineManager* mgr) -> bool {
    if (state_dir.empty()) return true;
    Progress p;
    p.complete = complete;
    p.next_trial = next_trial;
    p.next_epoch = next_epoch;
    p.digest = digest.h;
    p.totals = totals;
    p.rng_state = rng.state();
    if (mgr != nullptr) {
      p.has_checkpoint = true;
      p.checkpoint = mgr->checkpoint();
    }
    io::LoadError werr;
    if (!io::atomic_write_file(progress_path,
                               encode_progress(p, fingerprint, shape),
                               /*do_fsync=*/true, &werr)) {
      std::fprintf(stderr, "error: cannot write %s: %s\n",
                   progress_path.c_str(), werr.to_string().c_str());
      return false;
    }
    return true;
  };

  for (long trial = start_trial; trial < trials; ++trial) {
    std::unique_ptr<manager::MachineManager> owned;
    manager::MachineManager* mgr = nullptr;
    long first_epoch = 0;
    if (trial == start_trial && resumed != nullptr) {
      mgr = resumed.get();
      first_epoch = start_epoch;
    } else {
      rng = Rng(master.child_seed(static_cast<std::uint64_t>(trial)));
      owned = std::make_unique<manager::MachineManager>(shape, lamb_options);
      if (!machine_dir.empty()) {
        // One durable lineage per trial; the previous trial's state is
        // already folded into the digest and progress file.
        std::error_code ec;
        fs::remove_all(machine_dir, ec);
        owned->enable_durability(machine_dir);
      }
      mgr = owned.get();
      const FaultSet initial =
          FaultSet::random_nodes(shape, initial_faults, rng);
      for (NodeId id : initial.node_faults()) mgr->report_node_fault(id);
      mgr->reconfigure();
    }
    manager::RecoveryDriver driver(*mgr, recovery_options);

    for (long epoch = first_epoch; epoch < epochs; ++epoch) {
      const std::vector<NodeId> survivors = mgr->survivors();
      if (survivors.size() < 2) {  // storm ate the machine
        if (!save_progress(trial, epochs, false, nullptr)) return 1;
        break;
      }
      std::vector<std::pair<NodeId, NodeId>> pairs;
      pairs.reserve(static_cast<std::size_t>(messages));
      while (static_cast<long>(pairs.size()) < messages) {
        const NodeId src =
            survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
        const NodeId dst =
            survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
        if (src != dst) pairs.push_back({src, dst});
      }
      const wormhole::FaultSchedule storm = wormhole::FaultSchedule::
          random_storm(shape, mgr->faults(), node_kills, link_kills,
                       horizon, rng);

      const manager::RecoveryOutcome out =
          driver.run_epoch(std::move(pairs), storm, rng);

      totals.attempts += out.attempts;
      totals.rollbacks += out.rollbacks;
      totals.reconfigures += out.reconfigures;
      totals.delivered += out.messages_delivered;
      totals.dropped += out.messages_dropped;
      totals.unroutable += out.messages_unroutable;
      totals.replayed += out.messages_replayed;
      const auto& report = mgr->history().back();
      reconfigure_seconds.push_back(report.solve_seconds);
      if (report.solve_status != SolveStatus::kCertified) {
        ++totals.degraded_epochs;
      }
      digest.mix(out.attempts);
      digest.mix(out.rollbacks);
      digest.mix(out.reconfigures);
      digest.mix(out.clock);
      digest.mix(out.messages_delivered);
      digest.mix(out.messages_dropped);
      digest.mix(out.messages_unroutable);
      digest.mix(out.final_epoch);
      digest.mix(report.total_faults);
      digest.mix(report.lambs_total);

      if (verbose) {
        std::printf("  trial %ld epoch %ld: %d attempts, %d rollbacks, "
                    "%lld/%lld delivered (%lld dropped, %lld unroutable), "
                    "faults %lld, lambs %lld [%s]\n",
                    trial, epoch + 1, out.attempts, out.rollbacks,
                    static_cast<long long>(out.messages_delivered),
                    static_cast<long long>(out.messages_requested),
                    static_cast<long long>(out.messages_dropped),
                    static_cast<long long>(out.messages_unroutable),
                    static_cast<long long>(report.total_faults),
                    static_cast<long long>(report.lambs_total),
                    solve_status_name(report.solve_status));
      }
      if (!out.completed) {
        ++totals.failures;
        std::printf("FAIL: trial %ld epoch %ld did not complete after %d "
                    "attempts (%lld messages left)\n",
                    trial, epoch + 1, out.attempts,
                    static_cast<long long>(out.messages_requested -
                                           out.messages_delivered -
                                           out.messages_dropped -
                                           out.messages_unroutable));
      }
      // Epoch boundary: persist the resume point AFTER the manager state
      // it describes is durable (reconfigure already snapshotted it).
      if (!save_progress(trial, epoch + 1, false, mgr)) return 1;
    }
  }
  if (!save_progress(trials, 0, /*complete=*/true, nullptr)) return 1;

  std::printf("totals: %lld attempts, %lld rollbacks, %lld reconfigures, "
              "%lld delivered, %lld dropped, %lld unroutable, %lld "
              "replayed, %lld degraded epochs\n",
              static_cast<long long>(totals.attempts),
              static_cast<long long>(totals.rollbacks),
              static_cast<long long>(totals.reconfigures),
              static_cast<long long>(totals.delivered),
              static_cast<long long>(totals.dropped),
              static_cast<long long>(totals.unroutable),
              static_cast<long long>(totals.replayed),
              static_cast<long long>(totals.degraded_epochs));
  const double p50 = percentile(reconfigure_seconds, 50.0) * 1e6;
  const double p95 = percentile(reconfigure_seconds, 95.0) * 1e6;
  const double p99 = percentile(reconfigure_seconds, 99.0) * 1e6;
  std::printf("reconfigure latency: p50 %.1f us, p95 %.1f us, p99 %.1f us "
              "(%zu epochs)\n",
              p50, p95, p99, reconfigure_seconds.size());
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(digest.h));
  if (!json_path.empty()) {
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest.h));
    support::BenchDoc doc("tool", "fault_storm");
    doc.fields({{"mesh", shape.to_string()}, {"trials", trials},
                {"epochs_per_trial", epochs}, {"digest", digest_hex},
                {"failures", totals.failures},
                {"degraded_epochs", totals.degraded_epochs},
                {"delivered", totals.delivered}})
        .key("reconfigure_latency_us")
        .record({{"count", reconfigure_seconds.size()}, {"p50", p50},
                 {"p95", p95}, {"p99", p99}})
        .key("slo");
    obs::SloTracker::global().write_json(doc);
    // Machine-enforceable outcome gates; check_bench_gates.py resolves
    // the dotted SLO path.
    doc.gate_equals("failures", 0)
        .gate_max("slo.epoch_completion.burn", 1.0)
        .write(json_path);
  }
  if (totals.failures > 0) {
    std::printf("FAILED: %lld epoch(s) incomplete\n",
                static_cast<long long>(totals.failures));
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Observability plane (--serve, --flight, --telemetry, --metrics).
  // None of it touches simulation state, so the digest is bit-identical
  // with all of it enabled.
  const Args args = io::parse_cli(argc, argv, kCli);
  try {
    return cmd_run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
