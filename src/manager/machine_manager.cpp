#include "manager/machine_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/incremental.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/stats.hpp"

namespace lamb::manager {

namespace {

// Write-ahead journal record types. Records are appended BEFORE the
// change is applied in memory, so after a crash the journal is the
// authority: replaying a record whose apply never happened is exactly
// the recovery we want, and re-applying one that did happen is
// idempotent (reports dedup, degrade overwrites, reconfigure re-solves
// deterministically from the same state).
constexpr std::uint8_t kRecNodeFault = 1;    // i64 node id
constexpr std::uint8_t kRecLinkFault = 2;    // i64 from id, i32 dim, u8 dir
constexpr std::uint8_t kRecDegrade = 3;      // i64 node id, f64 value
constexpr std::uint8_t kRecReconfigure = 4;  // i32 epoch produced

// The one builder of an epoch record. `last` reports the solve that
// produced `lambs` (nullptr before any). The record's flood memo carries
// forward `prev`'s floods (nullptr: it starts cold).
std::shared_ptr<const EpochConfig> make_epoch_config(
    int epoch, std::shared_ptr<const FaultSnapshot> snapshot,
    MultiRoundOrder orders, std::vector<NodeId> lambs,
    const EpochReport* last, const EpochConfig* prev) {
  obs::Span span("manager.epoch_record", "manager");
  // SolveOutcome::certified(): the epoch routes with escalated orders, so
  // escalated rounds certify too. (A braced list evaluates left to right:
  // the copies are taken before the memo's moves.)
  std::shared_ptr<EpochConfig> config(new EpochConfig{
      epoch, snapshot, orders, std::move(lambs), {}, {},
      last != nullptr && last->solve_status != SolveStatus::kUncovered,
      wormhole::RouteCache(std::move(snapshot), std::move(orders)), {}});
  config->survivors = survivor_nodes(config->snapshot->faults, config->lambs,
                                     &config->survivor_mask);
  if (prev != nullptr) {
    if (const auto adopted = config->routes.adopt(prev->routes)) {
      config->carried = *adopted;
    } else {  // escalated orders carry nothing forward
      config->carried.dropped = prev->routes.cached_entries();
    }
  }
  return config;
}

}  // namespace

MachineManager::MachineManager(const MeshShape& shape, LambOptions options,
                               int max_rounds)
    : shape_(std::make_shared<const MeshShape>(shape)),
      options_(std::move(options)),
      max_rounds_(max_rounds),
      values_(static_cast<std::size_t>(shape.size()), 1.0),
      faults_(*shape_),
      config_(make_epoch_config(0, seal(shape_, faults_),
                                options_.resolved_orders(shape.dim()), {},
                                nullptr, nullptr)),
      load_(*shape_) {
  if (!options_.predetermined.empty()) {
    throw std::invalid_argument(
        "MachineManager manages predetermined lambs itself");
  }
  if (max_rounds_ < rounds()) {
    throw std::invalid_argument(
        "MachineManager: max_rounds below the configured routing rounds");
  }
  incremental_enabled_ = env_long("LAMBMESH_INCREMENTAL", 1) != 0;
}

void MachineManager::set_incremental(bool enabled) {
  incremental_enabled_ = enabled;
  // Disabling releases the kept solver context immediately (it holds the
  // reach matrices — the memory the toggle exists to reclaim).
  if (!enabled) last_outcome_.context.reset();
}

void MachineManager::report_node_fault(const Point& p) {
  if (!shape_->in_bounds(p)) {
    throw std::invalid_argument(
        "report_node_fault: point outside the mesh");
  }
  if (faults_.node_faulty(p)) return;
  if (state_ != nullptr) {
    io::ByteWriter w;
    w.u8(kRecNodeFault);
    w.i64(shape_->index(p));
    journal_append(w.data());
  }
  faults_.add_node(p);
  obs::FlightRecorder::global().record(obs::FlightEventType::kFaultApplied,
                                       0, shape_->index(p));
  pending_ = true;
}

void MachineManager::report_node_fault(NodeId id) {
  if (id < 0 || id >= shape_->size()) {
    throw std::invalid_argument("report_node_fault: node id " +
                                std::to_string(id) + " out of range");
  }
  report_node_fault(shape_->point(id));
}

void MachineManager::report_link_fault(const Point& from, int dim, Dir dir) {
  if (!shape_->in_bounds(from)) {
    throw std::invalid_argument(
        "report_link_fault: endpoint outside the mesh");
  }
  if (dim < 0 || dim >= shape_->dim()) {
    throw std::invalid_argument("report_link_fault: dimension " +
                                std::to_string(dim) + " out of range");
  }
  // Journaling must precede the apply, and a replayed record must never
  // throw — so the boundary check FaultSet::add_link would do happens
  // here first.
  Point neighbor;
  if (!shape_->neighbor(from, dim, dir, &neighbor)) {
    throw std::invalid_argument(
        "report_link_fault: link leaves the mesh");
  }
  const bool fwd_new = !faults_.link_faulty(from, dim, dir);
  const bool rev_new = !faults_.link_faulty(neighbor, dim, opposite(dir));
  // A report of a link already faulty both ways changes nothing, so it
  // leaves the configuration current, as a known node fault does. Either
  // direction being new makes the report change the fault set (a restored
  // directed fault plus this report blocks the reverse too), so either one
  // must reach the journal.
  if (!fwd_new && !rev_new) return;
  if (state_ != nullptr) {
    io::ByteWriter w;
    w.u8(kRecLinkFault);
    w.i64(shape_->index(from));
    w.i32(dim);
    w.u8(dir == Dir::Pos ? 1 : 0);
    journal_append(w.data());
  }
  faults_.add_link(from, dim, dir);
  obs::FlightRecorder::global().record(obs::FlightEventType::kFaultApplied, 1,
                                       shape_->index(from),
                                       dim * 2 + (dir == Dir::Pos ? 0 : 1));
  pending_ = true;
}

void MachineManager::degrade_node(NodeId id, double value) {
  if (id < 0 || id >= shape_->size()) {
    throw std::invalid_argument("degrade_node: node id " +
                                std::to_string(id) + " out of range");
  }
  if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
    throw std::invalid_argument(
        "degrade_node: value must be finite and in [0, 1]");
  }
  if (faults_.node_faulty(id)) return;
  if (state_ != nullptr) {
    io::ByteWriter w;
    w.u8(kRecDegrade);
    w.i64(id);
    w.f64(value);
    journal_append(w.data());
  }
  values_[static_cast<std::size_t>(id)] = value;
  pending_ = true;
}

EpochReport MachineManager::reconfigure() {
  obs::Span span("manager.reconfigure", "manager");
  // Faults only grow between seals, so the new ones are the count over
  // the previous epoch's snapshot.
  const std::int64_t new_node_faults =
      faults_.num_node_faults() - snapshot()->faults.num_node_faults();
  const std::int64_t new_link_faults =
      faults_.num_link_faults() - snapshot()->faults.num_link_faults();
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kReconfigureBegin, 0, new_node_faults,
      new_link_faults);
  if (state_ != nullptr) {
    // Intent record: if we crash mid-solve, recovery re-runs the
    // reconfigure (the solve is deterministic given the same state). On
    // success the post-apply snapshot resets the journal, so this record
    // only survives a crash.
    io::ByteWriter w;
    w.u8(kRecReconfigure);
    w.i32(epoch() + 1);
    journal_append(w.data());
  }
  EpochReport report;
  report.epoch = epoch() + 1;
  // Close out the route-load telemetry of the epoch that ends here.
  report.routes_vended = routes_vended_;
  report.route_load_max = load_.max();
  report.route_load_mean = load_.mean_nonzero();
  report.route_load_hottest = load_.hottest();
  load_.reset();
  routes_vended_ = 0;
  report.new_node_faults = new_node_faults;
  report.new_link_faults = new_link_faults;
  std::shared_ptr<const FaultSnapshot> sealed = seal(shape_, faults_);

  // Previous lambs that are still good stay lambs (monotone growth).
  LambOptions options = options_;
  options.node_values = &values_;
  options.orders = config_->orders;
  options.predetermined.clear();
  for (NodeId id : config_->lambs) {
    if (faults_.node_good(id)) options.predetermined.push_back(id);
  }
  options.keep_context = incremental_enabled_;

  Stopwatch watch;
  IncrementalStats inc;
  SolveOutcome outcome =
      incremental_enabled_
          ? solve_lambs_incremental(sealed, last_outcome_, options,
                                    max_rounds_, &inc)
          : solve_lambs(sealed, options, max_rounds_);
  const LambResult& result = outcome.result;
  report.incremental = inc.used;
  report.partition_cells_recomputed = inc.partition_cells_recomputed;
  report.blocks_reused = inc.blocks_reused;
  report.solve_seconds = watch.seconds();
  report.partition_seconds = result.stats.seconds_partition;
  report.matrices_seconds = result.stats.seconds_matrices;
  report.cover_seconds = result.stats.seconds_cover;
  report.solve_status = outcome.status;
  report.rounds = outcome.rounds;
  report.solve_escalations = outcome.escalations;
  report.uncovered_pairs =
      static_cast<std::int64_t>(outcome.uncovered_pairs.size());
  MultiRoundOrder orders = config_->orders;
  if (outcome.certified() && outcome.rounds > rounds()) {
    // The budget forced extra rounds; escalation is monotone, so fold
    // them into the configured orders for every later epoch.
    while (static_cast<int>(orders.size()) < outcome.rounds) {
      orders.push_back(DimOrder::ascending(shape_->dim()));
    }
  }

  report.lambs_new =
      result.size() - static_cast<std::int64_t>(options.predetermined.size());
  report.lambs_total = result.size();
  report.total_faults = faults_.f();
  std::shared_ptr<const EpochConfig> config = make_epoch_config(
      report.epoch, std::move(sealed), std::move(orders), result.lambs,
      &report, config_.get());
  report.survivors = static_cast<std::int64_t>(config->survivors.size());
  for (const NodeId id : config->survivors) {  // ascending: a fixed sum order
    report.survivor_value += values_[static_cast<std::size_t>(id)];
  }
  report.routes_retained = config->carried.retained;
  report.routes_dropped = config->carried.dropped;
  config_ = std::move(config);
  last_outcome_ = std::move(outcome);
  pending_ = false;
  history_.push_back(report);
  if (state_ != nullptr) persist_snapshot();

  // Cached handles: the registry find-or-create takes a lock per name,
  // and reconfigure is on the recovery latency path.
  static obs::Counter& c_epochs = obs::counter("manager.epochs");
  static obs::Counter& c_inc = obs::counter("manager.incremental_epochs");
  static obs::Counter& c_degraded = obs::counter("manager.degraded_epochs");
  static obs::Counter& c_new_faults = obs::counter("manager.new_faults");
  static obs::Gauge& g_rounds = obs::gauge("manager.rounds");
  static obs::Gauge& g_faults = obs::gauge("manager.faults");
  static obs::Gauge& g_lambs = obs::gauge("manager.lambs");
  static obs::Gauge& g_survivors = obs::gauge("manager.survivors");
  static obs::Gauge& g_load_max = obs::gauge("manager.route_load.max");
  static obs::Gauge& g_load_mean = obs::gauge("manager.route_load.mean");
  c_epochs.add();
  if (report.incremental) c_inc.add();
  if (report.solve_status != SolveStatus::kCertified) {
    c_degraded.add();
  }
  g_rounds.set(static_cast<double>(rounds()));
  c_new_faults.add(report.new_node_faults + report.new_link_faults);
  g_faults.set(static_cast<double>(report.total_faults));
  g_lambs.set(static_cast<double>(report.lambs_total));
  g_survivors.set(static_cast<double>(report.survivors));
  g_load_max.set(static_cast<double>(report.route_load_max));
  g_load_mean.set(report.route_load_mean);
  span.arg("epoch", report.epoch);
  span.arg("faults", static_cast<double>(report.total_faults));
  span.arg("lambs", static_cast<double>(report.lambs_total));
  span.arg("survivors", static_cast<double>(report.survivors));

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_epoch(static_cast<std::uint32_t>(report.epoch));
  recorder.record(
      obs::FlightEventType::kReconfigureEnd,
      static_cast<std::uint16_t>(
          static_cast<unsigned>(report.solve_status) |
          (report.incremental ? 1u << 8 : 0u)),
      static_cast<std::int64_t>(report.solve_seconds * 1e9),
      report.blocks_reused);
  if (report.solve_status != SolveStatus::kCertified) {
    recorder.record(obs::FlightEventType::kDegradeRung,
                    static_cast<std::uint16_t>(report.solve_status),
                    report.rounds, report.uncovered_pairs);
  }
  // The reconfigure-latency objective counts the whole epoch turnaround
  // (solve + epoch record with its flood carry-forward + snapshot), which
  // is what recovery blocks on.
  static obs::Slo* slo_latency =
      obs::SloTracker::global().find(obs::kSloReconfigureLatency);
  if (slo_latency != nullptr) slo_latency->observe_latency(watch.seconds());
  return report;
}

Checkpoint MachineManager::checkpoint() const {
  require_configured();
  Checkpoint snapshot = snapshot_state();
  obs::counter("manager.checkpoints").add();
  obs::FlightRecorder::global().record(obs::FlightEventType::kCheckpoint, 0,
                                       snapshot.epoch);
  return snapshot;
}

Checkpoint MachineManager::snapshot_state() const {
  Checkpoint snapshot;
  snapshot.epoch = epoch();
  const FaultSet& sealed = config_->snapshot->faults;
  snapshot.node_faults = sealed.node_faults();
  snapshot.link_faults = sealed.link_faults();
  snapshot.lambs = config_->lambs;
  snapshot.values = values_;
  snapshot.history = history_;
  snapshot.orders = config_->orders;
  snapshot.route_load = load_.counts;
  snapshot.routes_vended = routes_vended_;
  snapshot.pending = pending_;
  if (pending_) {
    // Faults only grow between seals, so the working set contains the
    // sealed one.
    FaultDelta reported = fault_delta(sealed, faults_).value();
    snapshot.pending_node_faults = std::move(reported.nodes);
    snapshot.pending_link_faults = std::move(reported.links);
  }
  return snapshot;
}

void MachineManager::restore(const Checkpoint& snapshot) {
  obs::Span span("manager.restore", "manager");
  apply_state(snapshot);
  // A roll-back is a state change like any other: it must be on disk
  // before the manager acts on it, or a crash would resurrect the
  // rolled-back timeline.
  if (state_ != nullptr) persist_snapshot();
  obs::counter("manager.restores").add();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_epoch(static_cast<std::uint32_t>(std::max(0, snapshot.epoch)));
  recorder.record(obs::FlightEventType::kRollback, 0, snapshot.epoch);
  span.arg("epoch", snapshot.epoch);
}

void MachineManager::apply_state(const Checkpoint& snapshot) {
  // Rebuild the epoch's fault set from the checkpoint's plain lists;
  // everything else is value state.
  FaultSet faults(*shape_);
  for (NodeId id : snapshot.node_faults) faults.add_node(id);
  for (const LinkFault& lf : snapshot.link_faults) faults.add(lf);
  faults_ = std::move(faults);
  values_ = snapshot.values;
  history_ = snapshot.history;
  // Restore (not reset) the mid-epoch route-vending state so load-aware
  // tie-breaking stays deterministic across a crash-and-resume. Older
  // checkpoints without counts fall back to the historical reset.
  if (snapshot.route_load.size() == load_.counts.size()) {
    load_.counts = snapshot.route_load;
  } else {
    load_.reset();
  }
  routes_vended_ = snapshot.routes_vended;
  // The kept solver context survives the roll-back: it records the exact
  // fault set it was solved for, and solve_lambs_incremental falls back
  // on its own whenever the restored timeline is not a superset of that
  // snapshot (kNotSuperset) or diverges in orders/rounds. The recovery
  // loop's roll-back restores precisely the state the context was solved
  // at, so the post-roll-back reconfigure — the recovery critical path —
  // stays incremental. The flood memo starts cold: its floods belong to
  // the abandoned timeline.
  config_ = make_epoch_config(epoch(), seal(shape_, faults_), snapshot.orders,
                              snapshot.lambs,
                              history_.empty() ? nullptr : &history_.back(),
                              nullptr);
  // Reports pending at capture time join the working set only, so the
  // next reconfigure() counts them as new.
  for (NodeId id : snapshot.pending_node_faults) faults_.add_node(id);
  for (const LinkFault& lf : snapshot.pending_link_faults) faults_.add(lf);
  // Epoch 0 only exists once reconfigure() establishes it, and a durable
  // snapshot taken while reports were pending restores that obligation.
  pending_ = snapshot.pending || history_.empty();
}

void MachineManager::require_configured() const {
  if (pending_) {
    throw std::logic_error(
        "MachineManager: configuration is stale; call reconfigure() first");
  }
}

std::optional<wormhole::Route> MachineManager::route(NodeId src, NodeId dst,
                                                     Rng& rng) {
  require_configured();
  Stopwatch watch;
  auto route = config_->routes.build(src, dst, rng, &load_);
  if (route) ++routes_vended_;
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kRouteVend, route ? 1 : 0, src, dst);
  static obs::Slo* slo_vend =
      obs::SloTracker::global().find(obs::kSloRouteVendLatency);
  if (slo_vend != nullptr) slo_vend->observe_latency(watch.seconds());
  return route;
}

// ------------------------------------------------------------ durability

void encode_machine_state(io::ByteWriter& w, const MeshShape& shape,
                          const Checkpoint& checkpoint) {
  io::encode(w, shape);
  io::encode(w, checkpoint, shape.dim());
}

io::LoadError decode_machine_state(std::string_view payload,
                                   MachineState* out) {
  io::ByteReader r(payload);
  MachineState state;
  if (io::decode(r, &state.shape) &&
      io::decode(r, *state.shape, &state.checkpoint) && r.expect_end()) {
    *out = std::move(state);
  }
  return r.error();
}

std::string MachineManager::encode_state() const {
  io::ByteWriter w;
  encode_machine_state(w, *shape_, snapshot_state());
  return w.take();
}

void MachineManager::persist_snapshot() {
  const std::string bytes = encode_state();
  const io::LoadError err = state_->write_snapshot(bytes);
  if (!err.ok()) {
    throw std::runtime_error("durable snapshot failed: " + err.to_string());
  }
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kSnapshotWrite, 0,
      static_cast<std::int64_t>(bytes.size()));
}

void MachineManager::journal_append(std::string_view record) {
  const io::LoadError err = state_->append_journal(record);
  if (!err.ok()) {
    throw std::runtime_error("durable journal append failed: " +
                             err.to_string());
  }
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kJournalWrite, 0,
      static_cast<std::int64_t>(record.size()));
}

void MachineManager::compact() {
  if (state_ == nullptr) {
    throw std::logic_error("MachineManager: compact() requires durability");
  }
  persist_snapshot();
}

void MachineManager::enable_durability(const std::string& dir,
                                       io::DurableOptions options) {
  if (state_ != nullptr) {
    throw std::logic_error("MachineManager: durability already enabled");
  }
  auto state = std::make_unique<io::StateDir>(dir, options);
  const io::LoadError err = state->write_snapshot(encode_state());
  if (!err.ok()) {
    throw std::runtime_error("durable snapshot failed: " + err.to_string());
  }
  state_ = std::move(state);
}

bool MachineManager::replay_record(std::string_view record) {
  io::ByteReader r(record);
  std::uint8_t type = 0;
  if (!r.u8(&type)) return false;
  // A record that passed its CRC can still be hostile (crafted bytes);
  // the report_* validators throw on semantic violations, and replay
  // converts that into a rejected record instead of propagating.
  try {
    switch (type) {
      case kRecNodeFault: {
        std::int64_t id = 0;
        if (!r.i64(&id) || !r.expect_end()) return false;
        report_node_fault(id);
        return true;
      }
      case kRecLinkFault: {
        std::int64_t from = 0;
        std::int32_t dim = 0;
        std::uint8_t dir = 0;
        if (!r.i64(&from) || !r.i32(&dim) || !r.u8(&dir) || !r.expect_end() ||
            from < 0 || from >= shape_->size() || dir > 1) {
          return false;
        }
        report_link_fault(shape_->point(from), dim,
                          dir == 1 ? Dir::Pos : Dir::Neg);
        return true;
      }
      case kRecDegrade: {
        std::int64_t id = 0;
        double value = 0.0;
        if (!r.i64(&id) || !r.f64(&value) || !r.expect_end()) return false;
        degrade_node(id, value);
        return true;
      }
      case kRecReconfigure: {
        std::int32_t target_epoch = 0;
        if (!r.i32(&target_epoch) || !r.expect_end() ||
            target_epoch != epoch() + 1) {
          return false;
        }
        reconfigure();
        return true;
      }
      default:
        return false;
    }
  } catch (const std::exception&) {
    return false;
  }
}

std::unique_ptr<MachineManager> MachineManager::open(
    const std::string& dir, LambOptions options, int max_rounds,
    OpenReport* report, io::LoadError* err,
    io::DurableOptions durable_options) {
  obs::Span span("manager.open", "manager");
  OpenReport local_report;
  io::LoadError local_err;
  if (report == nullptr) report = &local_report;
  if (err == nullptr) err = &local_err;
  *report = OpenReport{};
  *err = io::LoadError{};

  auto state = std::make_unique<io::StateDir>(dir, durable_options);
  io::StateDir::Recovered rec;
  // Recovery stops at the first snapshot that validates, so the last
  // decode the validator keeps is the snapshot it loads.
  MachineState decoded;
  *err = state->recover(&rec, [&decoded](std::string_view payload,
                                         io::LoadError* e) {
    *e = decode_machine_state(payload, &decoded);
    return e->ok();
  });
  report->quarantined = rec.quarantined;
  report->journal_tail_dropped = rec.journal_tail_dropped;
  if (!err->ok()) return nullptr;

  const Checkpoint& snapshot = decoded.checkpoint;
  report->snapshot_seq = rec.seq;
  report->snapshot_epoch = snapshot.epoch;
  if (static_cast<int>(snapshot.orders.size()) > max_rounds) {
    err->code = io::LoadError::Code::kMalformed;
    err->detail = "snapshot uses " + std::to_string(snapshot.orders.size()) +
                  " routing rounds, above max_rounds " +
                  std::to_string(max_rounds);
    return nullptr;
  }

  auto manager = std::make_unique<MachineManager>(*decoded.shape,
                                                  std::move(options),
                                                  max_rounds);
  manager->apply_state(snapshot);

  // Replay while state_ is still unset, so replayed reports are not
  // re-journaled and a replayed reconfigure does not snapshot early.
  for (const std::string& record : rec.journal_records) {
    const bool is_reconfigure =
        !record.empty() &&
        static_cast<std::uint8_t>(record[0]) == kRecReconfigure;
    if (!manager->replay_record(record)) {
      report->records_rejected =
          static_cast<std::int64_t>(rec.journal_records.size()) -
          report->records_replayed;
      break;
    }
    ++report->records_replayed;
    if (is_reconfigure) ++report->reconfigures_replayed;
  }

  manager->state_ = std::move(state);
  // Compact whenever recovery dropped, quarantined, or re-ran anything:
  // the fresh snapshot captures the repaired state and truncates the
  // journal, so the next open starts clean.
  if (report->journal_tail_dropped || !report->quarantined.empty() ||
      report->reconfigures_replayed > 0 || report->records_rejected > 0) {
    manager->persist_snapshot();
    report->compacted = true;
  }
  obs::counter("manager.opens").add();
  obs::FlightRecorder::global().set_epoch(
      static_cast<std::uint32_t>(std::max(0, manager->epoch())));
  // A restart that dropped a torn tail or rejected records lost
  // journaled work; that is exactly what the replay-loss objective
  // budgets.
  if (obs::Slo* slo = obs::SloTracker::global().find(obs::kSloReplayLoss)) {
    slo->record(!report->journal_tail_dropped &&
                report->records_rejected == 0);
  }
  span.arg("epoch", manager->epoch());
  span.arg("replayed", static_cast<double>(report->records_replayed));
  return manager;
}

}  // namespace lamb::manager
