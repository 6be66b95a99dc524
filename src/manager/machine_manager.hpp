// The roll-back / reconfigure control loop of paper Section 1: "a system
// diagnostic program will be invoked when new faults are detected. This
// will roll back to a previous checkpoint of the application, redefine
// the new set of faults, and reconfigure the machine assuming static
// faults and global knowledge. Our approach and algorithm would be part
// of the reconfiguration step."
//
// MachineManager owns the machine's fault/lamb/value state across
// epochs. Diagnostics are queued with report_* / degrade_node; a call to
// reconfigure() recomputes the lamb set — monotonically, using the
// Section 7 predetermined-lamb extension, so nodes once sacrificed stay
// sacrificed — and logs an epoch report. Each reconfigure() and restore()
// builds one EpochConfig (sealed faults, orders, lambs, survivors,
// certification and the epoch's one flood memo, a wormhole::RouteCache),
// shared by the manager, which vends verified survivor routes through it
// between reconfigurations, and every serving table of the epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lamb.hpp"
#include "io/durable.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb::manager {

struct EpochReport {
  int epoch = 0;
  std::int64_t new_node_faults = 0;
  std::int64_t new_link_faults = 0;
  std::int64_t total_faults = 0;
  std::int64_t lambs_total = 0;
  std::int64_t lambs_new = 0;
  std::int64_t survivors = 0;
  double survivor_value = 0.0;  // sum of survivor node values
  double solve_seconds = 0.0;
  // Graceful-degradation outcome of this reconfiguration (see
  // lamb::solve_lambs): the routing rounds the configuration is
  // certified for (0 when uncertified), how many extra rounds the solve
  // budget forced, and — for an uncertified epoch — how many survivor
  // pairs the diagnostic flood found uncovered.
  SolveStatus solve_status = SolveStatus::kCertified;
  int rounds = 0;
  int solve_escalations = 0;
  std::int64_t uncovered_pairs = 0;
  // Phase breakdown of solve_seconds (where did this reconfiguration go):
  // SES/DES partitioning, reachability-matrix products, and the WVC
  // cover. The same numbers feed the "manager.reconfigure" span, so a
  // LAMBMESH_TRACE run shows one span tree per epoch.
  double partition_seconds = 0.0;
  double matrices_seconds = 0.0;
  double cover_seconds = 0.0;
  // Route-load telemetry for the epoch this reconfiguration CLOSES: how
  // many routes were vended since the previous reconfigure and how
  // concentrated they were (zeroes for the first epoch).
  std::int64_t routes_vended = 0;
  std::int32_t route_load_max = 0;
  double route_load_mean = 0.0;  // over nodes that carried any route
  NodeId route_load_hottest = -1;
  // Incremental-reconfigure telemetry: whether the O(delta) path produced
  // this epoch (false = full solve, including every fallback), the
  // per-layer reuse counters (see core/incremental.hpp), and how many of
  // the previous epoch's memoized floods the new epoch's memo adopted or
  // dropped (EpochConfig::carried).
  bool incremental = false;
  std::int64_t partition_cells_recomputed = 0;
  std::int64_t blocks_reused = 0;
  std::int64_t routes_retained = 0;
  std::int64_t routes_dropped = 0;
};

// One epoch's configuration (paper Section 1: the faults, the lamb set and
// the survivors), worked out once per reconfigure() or restore() and
// shared by the manager and every serving table of the epoch. It is
// immutable apart from its flood memo, which only caches: a vend's route
// does not depend on what the memo holds.
struct EpochConfig {
  int epoch = 0;
  std::shared_ptr<const FaultSnapshot> snapshot;
  MultiRoundOrder orders;                   // possibly escalated rounds
  std::vector<NodeId> lambs;                // sorted
  std::vector<NodeId> survivors;            // ascending
  std::vector<std::uint8_t> survivor_mask;  // one byte per node
  bool certified = false;  // kCertified or kEscalated, at orders.size()
  // The epoch's one flood memo over (snapshot, orders). reconfigure()
  // seeds it from the previous epoch's memo (RouteCache::adopt);
  // restore() and a new manager start it cold.
  mutable wormhole::RouteCache routes;
  // That carry-forward: floods adopted, and floods the new faults made
  // stale (every flood when the orders escalated). Zeroes when cold.
  wormhole::RouteCache::AdoptStats carried;

  bool is_survivor(NodeId id) const {  // false outside the mesh
    return id >= 0 && id < static_cast<NodeId>(survivor_mask.size()) &&
           survivor_mask[static_cast<std::size_t>(id)] != 0;
  }
};

// A full snapshot of the manager's configuration state — the paper's
// "previous checkpoint" that the diagnostic program rolls back to. The
// snapshot is value-typed (plain lists, no pointers into the manager) so
// a RecoveryDriver can hold one across a failed epoch and restore it
// after the simulated traffic reveals new faults mid-flight.
struct Checkpoint {
  int epoch = 0;
  // The epoch's faults, as its reconfigure sealed them.
  std::vector<NodeId> node_faults;
  std::vector<LinkFault> link_faults;
  std::vector<NodeId> lambs;
  std::vector<double> values;
  std::vector<EpochReport> history;
  MultiRoundOrder orders;  // one per routing round
  // Mid-epoch route-vending state. Restoring it (rather than zeroing)
  // keeps load-aware route tie-breaking deterministic across a
  // crash-and-resume: the same request stream yields the same routes.
  // route_load may be empty (treated as all-zero) or one count per node.
  std::vector<std::int32_t> route_load;
  std::int64_t routes_vended = 0;
  // True when reports were pending at capture time. checkpoint() never
  // sets it (it refuses a stale configuration); durable snapshots use it
  // so recovery restores the must-reconfigure-first obligation.
  bool pending = false;
  // The faults reported since the epoch was sealed (empty unless
  // `pending`); the next reconfigure() counts them as new.
  std::vector<NodeId> pending_node_faults;
  std::vector<LinkFault> pending_link_faults;
};

// A machine-state payload: the mesh shape, then a Checkpoint over it, and
// nothing after. It is a durable snapshot's payload (open(),
// lambmesh_fsck) and fault_storm's resume checkpoint.
struct MachineState {
  std::unique_ptr<MeshShape> shape;
  Checkpoint checkpoint;
};
void encode_machine_state(io::ByteWriter& w, const MeshShape& shape,
                          const Checkpoint& checkpoint);
// The one decoder of that payload; on failure returns the error and
// leaves *out untouched.
io::LoadError decode_machine_state(std::string_view payload,
                                   MachineState* out);

// What MachineManager::open() found in the state directory.
struct OpenReport {
  std::uint64_t snapshot_seq = 0;  // seq of the snapshot recovered
  int snapshot_epoch = 0;          // epoch recorded in that snapshot
  std::int64_t records_replayed = 0;
  std::int64_t records_rejected = 0;   // replay stopped at a bad record
  std::int64_t reconfigures_replayed = 0;
  bool journal_tail_dropped = false;   // a torn tail was truncated
  bool compacted = false;              // a fresh snapshot was written
  std::vector<std::string> quarantined;
};

class MachineManager {
 public:
  // `max_rounds` bounds the graceful-degradation ladder: reconfigure()
  // may escalate the routing from the configured k up to this many
  // rounds when LambOptions::budget_seconds runs out (each extra round
  // costs one more virtual channel in the network — see rounds()).
  MachineManager(const MeshShape& shape, LambOptions options = {},
                 int max_rounds = 3);

  // Reopens a manager from a durable state directory (see
  // enable_durability): loads the newest valid snapshot, replays the
  // write-ahead journal's intact record prefix, and compacts when
  // recovery had to drop or re-run anything. `options` / `max_rounds`
  // are not persisted (LambOptions holds pointers) and must be supplied
  // again. Returns nullptr with *err filled when no snapshot in the
  // directory is recoverable; never throws on hostile bytes.
  static std::unique_ptr<MachineManager> open(
      const std::string& dir, LambOptions options = {}, int max_rounds = 3,
      OpenReport* report = nullptr, io::LoadError* err = nullptr,
      io::DurableOptions durable_options = {});

  // Neither copyable nor movable: serve::RouteService and RecoveryDriver
  // hold the manager's address.
  MachineManager(const MachineManager&) = delete;
  MachineManager& operator=(const MachineManager&) = delete;
  MachineManager(MachineManager&&) = delete;
  MachineManager& operator=(MachineManager&&) = delete;

  const MeshShape& shape() const { return *shape_; }
  // The working fault set: the current epoch's faults plus any reports
  // still pending.
  const FaultSet& faults() const { return faults_; }
  // The current epoch's faults, sealed by the last reconfigure() or
  // restore() (empty before either). Unlike faults() it never changes in
  // place; the next epoch seals a new snapshot.
  const std::shared_ptr<const FaultSnapshot>& snapshot() const {
    return config_->snapshot;
  }
  const std::vector<NodeId>& lambs() const { return config_->lambs; }
  int epoch() const { return static_cast<int>(history_.size()); }
  const std::vector<EpochReport>& history() const { return history_; }

  // --- Diagnostic inputs (queued until the next reconfigure) ---
  // All report_* / degrade_* inputs are validated eagerly and throw
  // std::invalid_argument on out-of-mesh coordinates, out-of-range ids,
  // bad dimensions, or non-finite values: diagnostics arrive from the
  // outside world (watchdogs, operators, fault storms), and a bad report
  // must not corrupt the fault set it will be checkpointed into.
  // Reports a dead node. Reporting a current lamb is fine (it simply
  // stops being a lamb and becomes a fault); reporting an existing fault
  // is idempotent.
  void report_node_fault(const Point& p);
  void report_node_fault(NodeId id);
  // Reports a dead link (both directions). Reporting a link already
  // faulty both ways is idempotent, from either side.
  void report_link_fault(const Point& from, int dim, Dir dir);
  // Marks a node as partially failed: its sacrifice cost becomes `value`
  // (Section 7 node values, so 0 <= value <= 1). Ignored for faulty
  // nodes.
  void degrade_node(NodeId id, double value);

  bool has_pending_reports() const { return pending_; }

  // Recomputes the lamb set over the accumulated faults. The previous
  // lambs are predetermined (monotone growth) except those that became
  // faults. Returns the epoch record (also appended to history()).
  // Under a solve budget this degrades instead of throwing: it escalates
  // rounds up to the constructor's max_rounds, and as a last resort
  // keeps the previous lambs uncertified (EpochReport::solve_status).
  EpochReport reconfigure();

  // Routing rounds the current configuration uses. Escalation is
  // monotone within an epoch sequence — once the budget forces k+1
  // rounds the manager stays there, because dropping back would break
  // the predetermined-lamb guarantee certified at the higher k. A
  // wormhole simulation of this configuration needs at least rounds()
  // virtual channels per link.
  int rounds() const { return static_cast<int>(config_->orders.size()); }
  const MultiRoundOrder& orders() const { return config_->orders; }

  // --- Checkpoint / roll-back (paper Section 1's recovery loop) ---
  // Snapshots the CURRENT configuration; throws std::logic_error while
  // reports are pending (a stale configuration is not a valid roll-back
  // target). restore() replaces all manager state with the checkpoint,
  // rebuilds the epoch record with a cold flood memo, leaving no
  // reports pending; diagnostics discovered after the checkpoint must be
  // re-reported.
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& snapshot);

  // --- Queries against the CURRENT configuration ---
  // Throws std::logic_error while reports are pending (the configuration
  // is stale — the paper's model requires reconfiguring first).
  // The current epoch's record, as serve::RouteTable shares it.
  const std::shared_ptr<const EpochConfig>& epoch_config() const {
    require_configured();
    return config_;
  }
  // False for an id outside the mesh.
  bool is_survivor(NodeId id) const { return epoch_config()->is_survivor(id); }
  const std::vector<NodeId>& survivors() const {
    return epoch_config()->survivors;
  }
  // k-round route between survivors, through the epoch's flood memo;
  // nullopt is impossible for survivor pairs by the lamb guarantee (and is
  // verified in tests). Every vended route charges the per-node load
  // counters (load-aware tie-breaking).
  std::optional<wormhole::Route> route(NodeId src, NodeId dst, Rng& rng);

  // Per-node load of routes vended since the last reconfigure; feed the
  // counts to obs::Telemetry::set_route_load for dump export.
  const wormhole::NodeLoad& route_load() const { return load_; }

  // --- Incremental reconfiguration (core/incremental.hpp) ---
  // When enabled (default; env LAMBMESH_INCREMENTAL=0 disables), each
  // reconfigure() keeps the solver's context and the next one re-solves
  // incrementally from it, falling back to the full solve whenever any
  // reuse condition fails. Results are bit-identical either way; the
  // toggle only trades memory for reconfigure latency.
  void set_incremental(bool enabled);
  bool incremental_enabled() const { return incremental_enabled_; }
  // The last reconfigure()'s solve outcome. With incremental on, its
  // context holds the same snapshot() the epoch's route tables share.
  const SolveOutcome& last_outcome() const { return last_outcome_; }

  // --- Durability (crash-safe state; docs/RECOVERY.md "Durability") ---
  // Attaches a state directory and writes an initial snapshot. From then
  // on every accepted diagnostic report is appended to the write-ahead
  // journal BEFORE it is applied, and every reconfigure()/restore()
  // writes a fresh snapshot and truncates the journal (compaction).
  // Durable write failures throw std::runtime_error (fail-stop: the
  // manager must not drift ahead of its journal). Throws
  // std::logic_error if durability is already enabled.
  void enable_durability(const std::string& dir,
                         io::DurableOptions options = {});
  bool durable() const { return state_ != nullptr; }
  // State directory handle, or nullptr when not durable.
  const io::StateDir* state_dir() const { return state_.get(); }
  // Writes a fresh snapshot and truncates the journal immediately (the
  // compaction reconfigure()/restore() perform implicitly). Pending
  // reports are baked into the snapshot along with their pending flag.
  // Throws std::logic_error when not durable.
  void compact();

 private:
  void require_configured() const;
  // Checkpoint of the raw member state; unlike checkpoint() this works
  // while reports are pending (durable snapshots must not lose them —
  // pending reports are in the journal, not the snapshot).
  Checkpoint snapshot_state() const;
  std::string encode_state() const;
  void apply_state(const Checkpoint& snapshot);
  void persist_snapshot();
  void journal_append(std::string_view record);
  // Applies one journal record; false (nothing applied) on a record that
  // is malformed or semantically invalid. Never throws.
  bool replay_record(std::string_view record);

  std::shared_ptr<const MeshShape> shape_;
  LambOptions options_;
  int max_rounds_ = 3;
  std::vector<double> values_;
  FaultSet faults_;  // working set: the epoch's faults plus pending reports
  std::shared_ptr<const EpochConfig> config_;  // orders: next solve's rounds
  std::vector<EpochReport> history_;
  wormhole::NodeLoad load_;
  std::int64_t routes_vended_ = 0;
  bool pending_ = true;  // epoch 0 must be established by reconfigure()
  std::unique_ptr<io::StateDir> state_;  // null when not durable
  // Incremental path: previous solve outcome (carries the SolveContext
  // when incremental is enabled). The outcome survives restore() — its
  // context holds the snapshot it was solved for, and the solver falls
  // back by itself when a restored timeline diverges from it — so the
  // recovery loop's roll-back → report → reconfigure stays incremental.
  // A reopened manager starts with no context.
  bool incremental_enabled_ = true;
  SolveOutcome last_outcome_;
};

}  // namespace lamb::manager
