#include "obs/slo.hpp"

#include <memory>

#include "support/env.hpp"

namespace lamb::obs {

namespace {

// A positive number of seconds from the environment, else `fallback`.
double env_seconds(const char* name, double fallback) {
  const double parsed = env_double(name, fallback);
  return parsed > 0.0 ? parsed : fallback;
}

}  // namespace

Slo::Slo(SloSpec spec, MetricsRegistry* registry) : spec_(std::move(spec)) {
  good_metric_ = &registry->counter("slo." + spec_.name + ".good");
  bad_metric_ = &registry->counter("slo." + spec_.name + ".bad");
  burn_metric_ = &registry->gauge("slo." + spec_.name + ".burn");
}

void Slo::record(bool good) {
  std::lock_guard<std::mutex> lock(mu_);
  window_.push_back(good);
  if (!good) ++window_bad_;
  if (window_.size() > spec_.window) {
    if (!window_.front()) --window_bad_;
    window_.pop_front();
  }
  if (good) {
    ++total_good_;
    good_metric_->add();
  } else {
    ++total_bad_;
    bad_metric_->add();
  }
  update_burn_locked();
}

void Slo::update_burn_locked() {
  const std::size_t n = window_.size();
  const double bad_fraction =
      n > 0 ? static_cast<double>(window_bad_) / static_cast<double>(n) : 0.0;
  const double budget = 1.0 - spec_.objective;
  const double burn = budget > 0.0 ? bad_fraction / budget : 0.0;
  burn_metric_->set(burn);
}

SloSnapshot Slo::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloSnapshot snap;
  snap.name = spec_.name;
  snap.description = spec_.description;
  snap.objective = spec_.objective;
  snap.threshold_seconds = spec_.threshold_seconds;
  snap.window = spec_.window;
  snap.bad = window_bad_;
  snap.good = window_.size() - window_bad_;
  snap.total_good = total_good_;
  snap.total_bad = total_bad_;
  const std::size_t n = window_.size();
  snap.bad_fraction =
      n > 0 ? static_cast<double>(window_bad_) / static_cast<double>(n) : 0.0;
  const double budget = 1.0 - spec_.objective;
  snap.burn = budget > 0.0 ? snap.bad_fraction / budget : 0.0;
  snap.met = snap.burn <= 1.0;
  return snap;
}

SloTracker::SloTracker(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::global()) {}

Slo* SloTracker::declare(const SloSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slo : slos_) {
    if (slo->spec().name == spec.name) return slo.get();
  }
  slos_.push_back(std::make_unique<Slo>(spec, registry_));
  return slos_.back().get();
}

Slo* SloTracker::find(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slo : slos_) {
    if (slo->spec().name == name) return slo.get();
  }
  return nullptr;
}

std::vector<SloSnapshot> SloTracker::snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloSnapshot> out;
  out.reserve(slos_.size());
  for (const auto& slo : slos_) out.push_back(slo->snapshot());
  return out;
}

void SloTracker::write_json(support::JsonWriter& w) const {
  w.begin_object();
  for (const SloSnapshot& s : snapshots()) {
    w.key(s.name).record({{"objective", s.objective},
                          {"threshold_seconds", s.threshold_seconds},
                          {"window", s.window}, {"good", s.good},
                          {"bad", s.bad}, {"total_good", s.total_good},
                          {"total_bad", s.total_bad}, {"burn", s.burn},
                          {"met", s.met}});
  }
  w.end();
}

std::string SloTracker::render_json() const {
  support::JsonWriter w;
  write_json(w);
  return w.str();
}

SloTracker& SloTracker::global() {
  // Leaked, like the metrics registry: instrumented code may record
  // during static destruction.
  static SloTracker* instance = [] {
    auto* tracker = new SloTracker(&MetricsRegistry::global());
    tracker->declare(
        {kSloReconfigureLatency,
         "reconfiguration completes within the latency cut-off",
         /*objective=*/0.99,
         env_seconds("LAMBMESH_SLO_RECONFIGURE_S", 0.25),
         /*window=*/256});
    tracker->declare({kSloRouteVendLatency,
                      "route vend completes within the latency cut-off",
                      /*objective=*/0.999,
                      env_seconds("LAMBMESH_SLO_VEND_S", 1e-3),
                      /*window=*/4096});
    tracker->declare({kSloEpochCompletion,
                      "recovery epochs deliver their full message set",
                      /*objective=*/0.95,
                      /*threshold_seconds=*/0.0,
                      /*window=*/128});
    tracker->declare({kSloReplayLoss,
                      "restart replay loses no journaled epochs",
                      /*objective=*/0.99,
                      /*threshold_seconds=*/0.0,
                      /*window=*/128});
    tracker->declare({kSloServeAvailability,
                      "route requests are answered with a route, not shed",
                      /*objective=*/0.99,
                      /*threshold_seconds=*/0.0,
                      /*window=*/4096});
    tracker->declare({kSloFleetAvailability,
                      "fleet answers with a route despite shard loss",
                      /*objective=*/0.99,
                      /*threshold_seconds=*/0.0,
                      /*window=*/4096});
    return tracker;
  }();
  return *instance;
}

}  // namespace lamb::obs
