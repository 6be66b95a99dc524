// Wormhole-simulator microbenchmark. Four experiments:
//
//   1. abl07 saturated workload (M_3(8), 2-round XYZ, 2 VCs, uniform
//      survivor traffic) with telemetry disabled vs enabled — holds the
//      enabled-path budget (<= 15%) to a number. Three ungated variants
//      price its parts: enabled with lifecycle events off, with the
//      watchdog off, and with window closes off (one window per 2^30
//      cycles), each against telemetry disabled.
//   2. The same workload with the flight recorder off vs on (<= 2%).
//   3. The same saturated workload under the cycle vs event engine — the
//      event core must not be slower than -2% where every router is busy
//      every cycle (its worst case).
//   4. An idle-mesh workload (M_3(16), 1% active injectors, long
//      injection gaps) under both engines — the event core's showcase:
//      wall time tracks active worms, not mesh volume.
//
// The event engine's ns per flit traversal on the saturated workload is
// recorded too, so the simulator's own speed is a committed row.
//
// The two on/off overheads (1, 2) are gated within a few percent of a
// ~20 ms run, tighter than best-of-N separates on a shared host (the
// recorder's best-of-9 ratio swung -18%..+11% run to run), so each is the
// median of the per-pair on/off time ratios over order-alternating
// interleaved pairs (paired_overhead, support/stats.hpp), with the ratios'
// interquartile range written next to it. The engine comparisons (3, 4)
// differ by far more and stay interleaved best-of-N.
//
// With --json PATH the results are written as a JSON document including a
// machine-readable "gates" array; tools/check_bench_gates.py enforces it
// in the bench-gate CI job (see BENCH_wormhole.json).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/lamb.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

namespace {

struct Result {
  std::string mode;
  double seconds = 0.0;       // per run, best of reps
  double cycles_per_s = 0.0;  // simulated cycles per wall second
  std::int64_t cycles = 0;
  std::int64_t delivered = 0;
  std::int64_t flits_moved = 0;  // flit traversals over every link
};

struct Variant {
  const char* mode;
  wormhole::Engine engine;
  const obs::TelemetryConfig* telemetry;
  bool recorder = true;  // flight recorder is always-on in production
};

// One untimed-setup run of `variant` over the workload; returns the
// seconds of Network::run alone and fills `out`'s counts.
double time_run(const Variant& variant, const MeshShape& shape,
                const FaultSet& faults,
                const std::vector<wormhole::Message>& messages, Result* out) {
  wormhole::SimConfig config;
  config.vcs_per_link = 2;
  config.buffer_flits = 4;
  config.telemetry = *variant.telemetry;
  config.engine = variant.engine;
  obs::FlightRecorder::global().set_enabled(variant.recorder);
  wormhole::Network net(shape, faults, config);
  for (const auto& m : messages) net.submit(m);
  Stopwatch watch;
  const auto result = net.run();
  const double s = watch.seconds();
  out->mode = variant.mode;
  out->cycles = result.cycles;
  out->delivered = result.delivered;
  out->flits_moved = result.flits_moved;
  return s;
}

void set_best(Result* res, double seconds) {
  res->seconds = seconds;
  res->cycles_per_s =
      seconds > 0 ? static_cast<double>(res->cycles) / seconds : 0.0;
}

// Times a set of variants over the same workload with the interleaved
// best-of-N timer (support/stats.hpp): a load spike on a shared machine
// hits all variants of a comparison instead of skewing the ratio.
std::vector<Result> time_variants(const std::vector<Variant>& variants,
                                  const MeshShape& shape,
                                  const FaultSet& faults,
                                  const std::vector<wormhole::Message>& messages,
                                  int reps) {
  std::vector<Result> out(variants.size());
  const std::vector<double> best =
      best_of_interleaved(reps, variants.size(), [&](std::size_t v) {
        return time_run(variants[v], shape, faults, messages, &out[v]);
      });
  for (std::size_t v = 0; v < variants.size(); ++v) set_best(&out[v], best[v]);
  return out;
}

// The on/off overhead of `on` over `off` from `pairs` order-alternating
// pairs; `rows` receives both sides as result rows, each with its best
// run.
PairedOverhead time_overhead(const Variant& off, const Variant& on,
                             const MeshShape& shape, const FaultSet& faults,
                             const std::vector<wormhole::Message>& messages,
                             int pairs, std::vector<Result>* rows) {
  const Variant* sides[] = {&off, &on};
  Result res[2];
  const PairedOverhead overhead = paired_overhead(pairs, [&](int v) {
    return time_run(*sides[v], shape, faults, messages, &res[v]);
  });
  for (int v = 0; v < 2; ++v) {
    set_best(&res[v], overhead.best[v]);
    rows->push_back(res[v]);
  }
  return overhead;
}

void print_result(const Result& r) {
  std::printf("  %-16s %9.4f s  %12.0f cycles/s  (%lld cycles, %lld "
              "delivered)\n",
              r.mode.c_str(), r.seconds, r.cycles_per_s,
              static_cast<long long>(r.cycles),
              static_cast<long long>(r.delivered));
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  // This bench compares the engines against each other; a process-wide
  // engine override would silently turn every comparison into a no-op
  // (and flunk its own speedup gate), so drop it up front.
  if (std::getenv("LAMBMESH_ENGINE")) {
    std::printf("note: ignoring LAMBMESH_ENGINE; rows pin their engine\n");
    unsetenv("LAMBMESH_ENGINE");
  }
  const std::string json_path = args.get("json");
  const int reps = 5;
  // The saturated rows are cheap (tens of ms) and feed the engine ratio
  // gate, so they get a deeper best-of to shrug off load spikes.
  const int sat_reps = 9;
  // Pairs per on/off overhead: enough that the median ratio settles to
  // well under the 2% recorder bound between runs of the bench.
  const int overhead_pairs = 81;
  constexpr auto kCycle = wormhole::Engine::kCycle;
  constexpr auto kEvent = wormhole::Engine::kEvent;
  std::vector<Result> results;
  // The document collects each gated figure as it is measured.
  support::BenchDoc doc("bench", "micro_wormhole");
  doc.object("workloads")
      .field("saturated",
             "abl07 uniform, M_3(8), 2 rounds, 2 VCs, 8-flit messages, gap "
             "0.25")
      .field("idle",
             "uniform, M_3(16), 1% active injectors, 8-flit messages, gap 20")
      .end();

  // --- Saturated abl07 workload: M_3(8), heavy uniform traffic ---------
  const MeshShape sat_shape = MeshShape::cube(3, 8);
  Rng rng(default_seed());
  const FaultSet sat_faults =
      FaultSet::random_nodes(sat_shape, sat_shape.size() * 3 / 100, rng);
  const LambResult sat_lambs = lamb1(sat_shape, sat_faults, {});
  wormhole::RouteCache sat_routes(sat_shape, sat_faults,
                                  ascending_rounds(3, 2));
  wormhole::TrafficConfig tc;
  // Long enough (~2k cycles) that the telemetry comparison measures the
  // steady-state tax rather than one-time setup (discovery, buffer
  // growth, page faults) on a tiny run, and that scheduler noise on a
  // shared machine stays small relative to the runtime.
  tc.num_messages = scaled_trials(8000);
  tc.message_flits = 8;
  // Four injections per cycle: hundreds of worms contending at any
  // moment, so every router genuinely has work every cycle. (gap 1.0
  // kept only ~30 worms in flight — a trickle, not saturation.)
  tc.injection_gap = 0.25;
  const auto sat_traffic = generate_traffic(sat_shape, sat_faults,
                                            sat_lambs.lambs, sat_routes, tc,
                                            rng);

  std::printf(
      "micro_wormhole: saturated %zu messages, median of %d on/off pairs, "
      "engines best of %d runs\n\n",
      sat_traffic.messages.size(), overhead_pairs, sat_reps);

  obs::TelemetryConfig off;  // disabled: the one-null-check configuration
  obs::TelemetryConfig on;
  on.enabled = true;  // sampling + lifecycle + watchdog, no dump I/O

  const PairedOverhead telemetry = time_overhead(
      {"telemetry_off", kEvent, &off}, {"telemetry_on", kEvent, &on},
      sat_shape, sat_faults, sat_traffic.messages, overhead_pairs, &results);
  doc.field("telemetry_on_overhead_pct", telemetry.median_pct);
  doc.field("telemetry_on_overhead_iqr_pct", telemetry.iqr_pct);
  doc.gate_max("telemetry_on_overhead_pct", 15.0);
  // Where the enabled path's time goes: the same pairs with one part
  // switched off. Recorded, not gated.
  obs::TelemetryConfig no_lifecycle = on;
  no_lifecycle.lifecycle = false;
  obs::TelemetryConfig no_watchdog = on;
  no_watchdog.watchdog = false;
  obs::TelemetryConfig no_closes = on;
  no_closes.sample_every = std::int64_t{1} << 30;
  const struct {
    const char* field;
    const char* iqr_field;
    Variant variant;
  } parts[] = {
      {"telemetry_lifecycle_off_overhead_pct",
       "telemetry_lifecycle_off_overhead_iqr_pct",
       {"telemetry_lifecycle_off", kEvent, &no_lifecycle}},
      {"telemetry_watchdog_off_overhead_pct",
       "telemetry_watchdog_off_overhead_iqr_pct",
       {"telemetry_watchdog_off", kEvent, &no_watchdog}},
      {"telemetry_closes_off_overhead_pct",
       "telemetry_closes_off_overhead_iqr_pct",
       {"telemetry_closes_off", kEvent, &no_closes}},
  };
  std::vector<PairedOverhead> part_overheads;
  for (const auto& part : parts) {
    std::vector<Result> rows;
    part_overheads.push_back(time_overhead({"telemetry_off", kEvent, &off},
                                           part.variant, sat_shape,
                                           sat_faults, sat_traffic.messages,
                                           overhead_pairs, &rows));
    results.push_back(rows[1]);  // the off side repeats the row above
    doc.field(part.field, part_overheads.back().median_pct);
    doc.field(part.iqr_field, part_overheads.back().iqr_pct);
  }
  const auto sat = time_variants({{"saturated_cycle", kCycle, &off},
                                  {"saturated_event", kEvent, &off}},
                                 sat_shape, sat_faults, sat_traffic.messages,
                                 sat_reps);
  results.insert(results.end(), sat.begin(), sat.end());
  const double saturated_overhead =
      sat[0].seconds > 0 ? (sat[1].seconds / sat[0].seconds - 1.0) * 100.0
                         : 0.0;
  doc.field("event_saturated_overhead_pct", saturated_overhead);
  doc.gate_max("event_saturated_overhead_pct", 2.0);
  const double ns_per_flit =
      sat[1].flits_moved > 0
          ? sat[1].seconds * 1e9 / static_cast<double>(sat[1].flits_moved)
          : 0.0;
  doc.field("saturated_event_ns_per_flit", ns_per_flit);
  // Flight recorder (docs/OBSERVABILITY.md): always-on in production, so
  // its enabled-path tax on the same saturated abl07 workload is held to
  // a number the way telemetry's is.
  const PairedOverhead recorder = time_overhead(
      {"recorder_off", kEvent, &off, /*recorder=*/false},
      {"recorder_on", kEvent, &off, /*recorder=*/true}, sat_shape, sat_faults,
      sat_traffic.messages, overhead_pairs, &results);
  doc.field("recorder_on_overhead_pct", recorder.median_pct);
  doc.field("recorder_on_overhead_iqr_pct", recorder.iqr_pct);
  doc.gate_max("recorder_on_overhead_pct", 2.0);

  // --- Idle-mesh workload: M_3(16), 1% active injectors ----------------
  // Long gaps and few sources: the mesh is almost always quiet, with a
  // trickle of overlapping worms keeping something in flight. The cycle
  // engine still clears every link's usage bit and polls every message
  // per cycle; the event engine touches only the active worms.
  const MeshShape idle_shape = MeshShape::cube(3, 16);
  Rng idle_rng(default_seed() + 1);
  const FaultSet idle_faults = FaultSet::random_nodes(
      idle_shape, idle_shape.size() * 1 / 100, idle_rng);
  const LambResult idle_lambs = lamb1(idle_shape, idle_faults, {});
  wormhole::RouteCache idle_routes(idle_shape, idle_faults,
                                   ascending_rounds(3, 2));
  wormhole::TrafficConfig idle_tc;
  // Enough messages that the cycle engine's per-cycle poll of every
  // message dominates its cost; the event engine's awake scan grows only
  // an eighth of a byte per message per cycle.
  idle_tc.num_messages = scaled_trials(1024);
  idle_tc.message_flits = 8;
  // Gap below the ~32-cycle worm lifetime: lifetimes overlap, so there is
  // always SOMETHING in flight and the cycle engine cannot fast-forward —
  // it pays the full per-cycle mesh scan while the event engine tracks
  // only the handful of active worms.
  idle_tc.injection_gap = 20.0;
  idle_tc.injector_fraction = 0.01;
  const auto idle_traffic =
      generate_traffic(idle_shape, idle_faults, idle_lambs.lambs,
                       idle_routes, idle_tc, idle_rng);

  std::printf("\nmicro_wormhole: idle-mesh %zu messages, best of %d runs\n\n",
              idle_traffic.messages.size(), reps);

  const auto idle = time_variants({{"idle_cycle", kCycle, &off},
                                   {"idle_event", kEvent, &off}},
                                  idle_shape, idle_faults,
                                  idle_traffic.messages, reps);
  results.insert(results.end(), idle.begin(), idle.end());
  const double idle_speedup =
      idle[1].seconds > 0 ? idle[0].seconds / idle[1].seconds : 0.0;
  // CI gate: never slower than the cycle engine. The measured value (the
  // >= 5x claim) is recorded in the JSON for the trajectory.
  doc.field("event_idle_speedup_x", idle_speedup);
  doc.gate_min("event_idle_speedup_x", 1.0);

  for (const Result& r : results) print_result(r);
  std::printf("\n  telemetry-on overhead:     %+.1f%% median, IQR %.1f "
              "(gate <= +15%%)\n",
              telemetry.median_pct, telemetry.iqr_pct);
  for (std::size_t i = 0; i < part_overheads.size(); ++i) {
    std::printf("    %-24s %+.1f%% median, IQR %.1f\n",
                parts[i].variant.mode, part_overheads[i].median_pct,
                part_overheads[i].iqr_pct);
  }
  std::printf("  event saturated overhead:  %+.1f%% (gate <= +2%%)\n",
              saturated_overhead);
  std::printf("  event saturated:           %.1f ns per flit traversal\n",
              ns_per_flit);
  std::printf("  recorder-on overhead:      %+.1f%% median, IQR %.1f "
              "(gate <= +2%%)\n",
              recorder.median_pct, recorder.iqr_pct);
  std::printf("  event idle-mesh speedup:   %.1fx (gate >= 1.0x)\n",
              idle_speedup);

  if (!json_path.empty()) {
    doc.array("results");
    for (const Result& r : results) {
      doc.record({{"mode", r.mode}, {"seconds", r.seconds},
                  {"cycles", r.cycles}, {"cycles_per_s", r.cycles_per_s},
                  {"delivered", r.delivered}, {"flits_moved", r.flits_moved}});
    }
    doc.end().field(
        "how_to_reproduce",
        "cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build "
        "build -j && ./build/bench/micro_wormhole --json BENCH_wormhole.json "
        "(LAMBMESH_TRIALS scales the message count; LAMBMESH_ENGINE is "
        "ignored — each row pins its engine explicitly)");
    doc.write(json_path);
  }
  return 0;
}
