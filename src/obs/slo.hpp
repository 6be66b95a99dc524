// Declarative service-level objectives over sliding event windows, with
// error-budget burn tracking (docs/OBSERVABILITY.md "SLO burn").
//
// Each Slo counts good/bad events over the last `window` observations.
// The error budget is the bad fraction the objective tolerates
// (1 - objective); `burn` is the observed bad fraction divided by that
// budget, so burn < 1 means "within budget", burn == 2 means "failing
// twice as fast as the objective allows". Latency objectives classify
// an observation as good iff it is <= threshold_seconds.
//
// Trackers export three metrics per objective into a MetricsRegistry
// (slo.<name>.good / slo.<name>.bad as counters, slo.<name>.burn as a
// gauge) so the burn shows up in /metrics, the exit dump, and the
// fault_storm JSON, where check_bench_gates.py asserts on it.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace lamb::obs {

struct SloSpec {
  std::string name;         // metric-safe, dotted (e.g. "reconfigure_latency")
  std::string description;
  double objective = 0.999;          // target good fraction, in (0, 1)
  double threshold_seconds = 0.0;    // latency cut-off; 0 = event SLO
  std::size_t window = 512;          // sliding window, in observations
};

struct SloSnapshot {
  std::string name;
  std::string description;
  double objective = 0.0;
  double threshold_seconds = 0.0;
  std::size_t window = 0;
  std::uint64_t good = 0;        // within the current window
  std::uint64_t bad = 0;
  std::uint64_t total_good = 0;  // lifetime
  std::uint64_t total_bad = 0;
  double bad_fraction = 0.0;     // over the window
  double burn = 0.0;             // bad_fraction / (1 - objective)
  bool met = true;               // burn <= 1
};

class Slo {
 public:
  Slo(SloSpec spec, MetricsRegistry* registry);

  // Event objectives: record a success / failure directly.
  void record(bool good);
  // Latency objectives: good iff seconds <= threshold_seconds.
  void observe_latency(double seconds) {
    record(seconds <= spec_.threshold_seconds);
  }

  SloSnapshot snapshot() const;
  const SloSpec& spec() const { return spec_; }

 private:
  void update_burn_locked();

  SloSpec spec_;
  Counter* good_metric_;
  Counter* bad_metric_;
  Gauge* burn_metric_;

  mutable std::mutex mu_;
  std::deque<bool> window_;  // true = good, most recent at the back
  std::uint64_t window_bad_ = 0;
  std::uint64_t total_good_ = 0;
  std::uint64_t total_bad_ = 0;
};

// Owns the objectives and hands out stable Slo pointers by name.
class SloTracker {
 public:
  // Objectives export their burn/good/bad into `registry` (defaults to
  // the global metrics registry).
  explicit SloTracker(MetricsRegistry* registry = nullptr);

  // The process-wide tracker, pre-declared with the standard objectives
  // (see kDefault* below). Thresholds are env-overridable:
  //   LAMBMESH_SLO_RECONFIGURE_S  reconfigure latency cut-off (seconds)
  //   LAMBMESH_SLO_VEND_S         route-vend latency cut-off (seconds)
  static SloTracker& global();

  // Find-or-create; the pointer stays valid for the tracker's lifetime.
  Slo* declare(const SloSpec& spec);
  Slo* find(std::string_view name);

  std::vector<SloSnapshot> snapshots() const;

  // Writes the JSON object {"<name>": {"objective": ..., "burn": ...},
  // ...}, one objective per line: the "slo" member of the fault_storm and
  // loadgen documents.
  void write_json(support::JsonWriter& w) const;
  // The same object as a document of its own (the /slo endpoint).
  std::string render_json() const;

 private:
  MetricsRegistry* registry_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slo>> slos_;
};

// Names of the standard objectives declared on SloTracker::global().
inline constexpr const char* kSloReconfigureLatency = "reconfigure_latency";
inline constexpr const char* kSloRouteVendLatency = "route_vend_latency";
inline constexpr const char* kSloEpochCompletion = "epoch_completion";
inline constexpr const char* kSloReplayLoss = "replay_loss";
// Serving layer (src/serve): a request is good when it was answered with
// a route (fresh, stale, or dimension-ordered fallback), bad when it was
// shed, rejected, or missed its deadline. Unroutable answers about dead
// endpoints are not availability events.
inline constexpr const char* kSloServeAvailability = "serve_availability";
// Fleet layer (src/fleet): same good/bad classification as
// serve_availability, but over the FLEET's answer — a request failed over
// to a healthy shard and served there counts good, no matter how many
// shards shed it on the way.
inline constexpr const char* kSloFleetAvailability = "fleet_availability";

}  // namespace lamb::obs
