// Recovery-stack microbenchmark: the abl07 workload (M_3(8), 2-round
// XYZ, 2 VCs, uniform survivor traffic) timed with the fault schedule
// empty and with a live storm striking mid-run, plus a full
// RecoveryDriver epoch (checkpoint -> sim -> roll back -> reconfigure ->
// replay). Holds the "one integer comparison when disabled" claim to a
// number: the schedule-off row is the acceptance gate against the
// pre-PR simulator (see BENCH_recovery.json). With --json PATH the
// results are written as a JSON document.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/lamb.hpp"
#include "io/cli_args.hpp"
#include "manager/machine_manager.hpp"
#include "manager/recovery.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "wormhole/fault_schedule.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

namespace {

// Repetition counts and the k-series solver pool width, echoed in the
// JSON.
constexpr int kSimPairs = 100;     // order-alternating off/on pairs
constexpr int kSeriesReps = 20;    // timed k-series repetitions
constexpr int kSolverThreads = 1;  // pool width during the k-series

struct Result {
  std::string mode;
  double seconds = 0.0;       // per run, best of reps
  double cycles_per_s = 0.0;  // simulated cycles per wall second
  std::int64_t cycles = 0;
  std::int64_t delivered = 0;
  std::int64_t resolved_by_fault = 0;  // lost + poisoned
};

// Best-of-N seconds into *res, with the simulated-cycle rate it implies.
void set_best(Result* res, double seconds) {
  res->seconds = seconds;
  res->cycles_per_s =
      seconds > 0 ? static_cast<double>(res->cycles) / seconds : 0.0;
}

// One simulation of `messages` under `schedule`: returns the wall time of
// Network::run and records the run's counts in *res.
double time_sim(const MeshShape& shape, const FaultSet& faults,
                const std::vector<wormhole::Message>& messages,
                const wormhole::FaultSchedule& schedule, Result* res) {
  wormhole::SimConfig config;
  config.vcs_per_link = 2;
  config.buffer_flits = 4;
  config.fault_schedule = schedule;
  wormhole::Network net(shape, faults, config);
  for (const auto& m : messages) net.submit(m);
  Stopwatch watch;
  const auto result = net.run();
  const double s = watch.seconds();
  res->cycles = result.cycles;
  res->delivered = result.delivered;
  res->resolved_by_fault = result.lost + result.poisoned;
  return s;
}

Result time_recovery_epoch(const MeshShape& shape, std::int64_t messages,
                           int reps) {
  Result res;
  res.mode = "recovery_epoch";
  const double best = best_of_interleaved(reps, 1, [&](std::size_t) {
    Rng rng(default_seed());
    manager::MachineManager mgr(shape);
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
    res.cycles = out.clock;
    res.delivered = out.messages_delivered;
    res.resolved_by_fault = out.rollbacks;  // repurposed: rollback count
    return s;
  })[0];
  set_best(&res, best);
  return res;
}

// One point of the k-th-fault storm series: reconfigure latency after
// the k-th single-fault epoch, incremental path vs from-scratch.
struct SeriesPoint {
  int k = 0;
  double full_seconds = 0.0;  // best over series repetitions
  double inc_seconds = 0.0;
  bool incremental_used = false;
  std::int64_t blocks_reused = 0;
};

// Runs the storm series: `initial` random node faults up front, then K
// epochs of one new fault each, against two managers fed the identical
// fault sequence — one with the incremental path, one without. Since
// reconfigure() mutates the manager, the whole series is repeated
// `series_reps` times (same seed, same faults) taking the per-k minimum.
// Sets *equivalent to whether the two managers' lamb sets matched at
// every k of every repetition (the bit-identity gate).
std::vector<SeriesPoint> storm_series(const MeshShape& shape, int initial,
                                      int K, int series_reps,
                                      bool* equivalent) {
  std::vector<SeriesPoint> series(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) series[static_cast<std::size_t>(k)].k = k + 1;
  *equivalent = true;
  // rep -1 is an untimed warm-up pass: the first series otherwise pays
  // cold caches and branch predictors for both paths and skews the
  // per-k minima on quiet machines.
  for (int rep = -1; rep < series_reps; ++rep) {
    Rng rng(default_seed());
    manager::MachineManager inc(shape);
    inc.set_incremental(true);
    manager::MachineManager full(shape);
    full.set_incremental(false);
    const FaultSet seed_faults = FaultSet::random_nodes(shape, initial, rng);
    for (NodeId id : seed_faults.node_faults()) {
      inc.report_node_fault(id);
      full.report_node_fault(id);
    }
    inc.reconfigure();
    full.reconfigure();
    for (int k = 0; k < K; ++k) {
      NodeId victim;
      do {
        victim = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(shape.size())));
      } while (inc.faults().node_faulty(victim));
      inc.report_node_fault(victim);
      full.report_node_fault(victim);
      SeriesPoint& pt = series[static_cast<std::size_t>(k)];
      Stopwatch wi;
      const auto ri = inc.reconfigure();
      const double ti = wi.seconds();
      Stopwatch wf;
      full.reconfigure();
      const double tf = wf.seconds();
      if (inc.lambs() != full.lambs()) *equivalent = false;
      if (rep < 0) continue;
      if (rep == 0 || ti < pt.inc_seconds) pt.inc_seconds = ti;
      if (rep == 0 || tf < pt.full_seconds) pt.full_seconds = tf;
      pt.incremental_used = pt.incremental_used || ri.incremental;
      pt.blocks_reused = ri.blocks_reused;
    }
  }
  return series;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                double overhead_pct, double overhead_iqr_pct,
                const std::vector<SeriesPoint>& series,
                double incremental_speedup, bool equivalent) {
  support::BenchDoc doc("bench", "micro_recovery");
  // Speedup of the O(delta) reconfigure over the from-scratch solve at the
  // 8th fault of the storm series (the acceptance point); equivalence is 1
  // only when both managers produced identical lamb sets at every k of
  // every repetition.
  doc.fields({{"workload",
               "abl07 uniform, M_3(8), 2 rounds, 2 VCs, 8-flit messages; "
               "storm = 3 node + 1 link kills; k-series = 20 background node "
               "faults + 1 node per epoch"},
              {"sim_pairs", kSimPairs},
              {"series_reps", kSeriesReps},
              {"solver_threads", kSolverThreads},
              {"storm_on_overhead_pct", overhead_pct},
              {"storm_on_overhead_iqr_pct", overhead_iqr_pct},
              {"incremental_reconfigure_speedup", incremental_speedup},
              {"incremental_equivalent", equivalent ? 1 : 0}})
      .array("results");
  for (const Result& r : results) {
    doc.record({{"mode", r.mode}, {"seconds", r.seconds},
                {"cycles", r.cycles}, {"cycles_per_s", r.cycles_per_s},
                {"delivered", r.delivered},
                {"resolved_by_fault", r.resolved_by_fault}});
  }
  doc.end().array("kth_fault_series");
  for (const SeriesPoint& pt : series) {
    doc.record({{"k", pt.k}, {"full_seconds", pt.full_seconds},
                {"incremental_seconds", pt.inc_seconds},
                {"incremental_used", pt.incremental_used ? 1 : 0},
                {"blocks_reused", pt.blocks_reused}});
  }
  doc.end();
  // Live fault processing is amortized (sorted schedule, one probe per
  // cycle), so the true storm tax sits near zero; the gate catches a
  // per-cycle scan creeping back in (tens of percent) while leaving room
  // for run-to-run timing noise.
  doc.gate_max("storm_on_overhead_pct", 15.0)
      .gate_min("incremental_reconfigure_speedup", 3.0)
      .gate_equals("incremental_equivalent", 1)
      .write(path);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const std::string json_path = args.get("json");

  const MeshShape shape = MeshShape::cube(3, 8);
  Rng rng(default_seed());
  const FaultSet faults =
      FaultSet::random_nodes(shape, shape.size() * 3 / 100, rng);
  const LambResult lambs = lamb1(shape, faults, {});
  wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));
  wormhole::TrafficConfig tc;
  tc.num_messages = scaled_trials(2000);
  tc.message_flits = 8;
  tc.injection_gap = 1.0;
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
  const int reps = 3;

  std::printf("micro_recovery: %zu messages, median of %d order-"
              "alternating off/on pairs\n\n",
              traffic.messages.size(), kSimPairs);
  std::vector<Result> results;

  // An untimed schedule-off run warms up and sizes the storm window.
  const wormhole::FaultSchedule off;  // the one-comparison configuration
  Result warmup;
  time_sim(shape, faults, traffic.messages, off, &warmup);
  const wormhole::FaultSchedule storm = wormhole::FaultSchedule::random_storm(
      shape, faults, 3, 1, warmup.cycles, rng);
  // The overhead is the median of the per-pair storm/off time ratios
  // over order-alternating pairs (paired_overhead), so a load spike moves
  // one ratio rather than one side's best; each mode's row keeps its best
  // run.
  Result sim[] = {{"schedule_off"}, {"storm_on"}};
  const wormhole::FaultSchedule* schedules[] = {&off, &storm};
  const PairedOverhead storm_overhead = paired_overhead(kSimPairs, [&](int v) {
    return time_sim(shape, faults, traffic.messages, *schedules[v], &sim[v]);
  });
  for (std::size_t v = 0; v < 2; ++v) {
    set_best(&sim[v], storm_overhead.best[v]);
    results.push_back(sim[v]);
  }

  results.push_back(time_recovery_epoch(shape, scaled_trials(400), reps));

  const double overhead_pct = storm_overhead.median_pct;
  const double overhead_iqr_pct = storm_overhead.iqr_pct;
  for (const Result& r : results) {
    std::printf("  %-15s %9.4f s  %12.0f cycles/s  (%lld cycles, %lld "
                "delivered, %lld lost/poisoned|rollbacks)\n",
                r.mode.c_str(), r.seconds, r.cycles_per_s,
                static_cast<long long>(r.cycles),
                static_cast<long long>(r.delivered),
                static_cast<long long>(r.resolved_by_fault));
  }
  std::printf("\n  storm-on overhead vs empty schedule: %+.1f%% median, "
              "IQR %.1f\n",
              overhead_pct, overhead_iqr_pct);

  // k-th-fault storm series: incremental vs from-scratch reconfigure.
  // 20 background faults (~4% of M_3(8)) put the mesh in the damaged
  // steady state the recovery loop actually operates in; each storm
  // fault is then a one-node delta on top.
  // The series runs at a pinned solver pool width: the full solve
  // parallelises better than the incremental one, so the speedup would
  // otherwise depend on how many cores the host has free.
  bool equivalent = true;
  const int K = 10;
  const int pool_threads = par::threads();
  par::set_threads(kSolverThreads);
  const auto series = storm_series(shape, 20, K, kSeriesReps, &equivalent);
  par::set_threads(pool_threads);
  std::printf("\n  k-th-fault reconfigure latency (best of %d series):\n",
              kSeriesReps);
  for (const SeriesPoint& pt : series) {
    std::printf("    k=%-2d  full %8.2f us  incremental %8.2f us  (%5.2fx%s, "
                "%lld blocks reused)\n",
                pt.k, pt.full_seconds * 1e6, pt.inc_seconds * 1e6,
                pt.inc_seconds > 0 ? pt.full_seconds / pt.inc_seconds : 0.0,
                pt.incremental_used ? "" : ", fell back",
                static_cast<long long>(pt.blocks_reused));
  }
  // The acceptance point: the 8th fault of the storm.
  const SeriesPoint& at8 = series[7];
  const double incremental_speedup =
      at8.inc_seconds > 0 ? at8.full_seconds / at8.inc_seconds : 0.0;
  std::printf("  incremental speedup at k=8: %.2fx (%s)\n",
              incremental_speedup,
              equivalent ? "bit-identical" : "MISMATCH");

  if (!json_path.empty()) {
    write_json(json_path, results, overhead_pct, overhead_iqr_pct, series,
               incremental_speedup, equivalent);
  }
  return equivalent ? 0 : 1;
}
