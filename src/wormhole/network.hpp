// Flit-level wormhole network simulator (paper Section 1 background and
// the Blue Gene requirements (i)-(iv)).
//
// Model: each directed physical link carries at most one flit per cycle,
// shared by `vcs_per_link` virtual channels, each with its own FIFO input
// buffer of `buffer_flits` at the downstream node (credit-based flow
// control). A message's flits follow its precomputed k-round route in a
// pipelined worm; the head flit must acquire each virtual channel (free
// or already owned), the tail flit releases it. Round r of the route uses
// virtual channel r mod vcs_per_link, so with vcs_per_link >= k the
// channel-dependence graph is acyclic per round and the simulation can
// never deadlock (Dally & Seitz [8]); with fewer VCs than rounds, cyclic
// waits -- and real deadlocks -- become possible, which the abl06 bench
// demonstrates.
//
// A watchdog declares deadlock when no flit moves for `deadlock_threshold`
// cycles while traffic is still in flight.
//
// Two interchangeable engines drive the simulation (see docs/SIMULATOR.md):
//
//   * Engine::kCycle — the original loop: every cycle, every unfinished
//     message is polled and every (link, vc) usage bit is cleared. Simple,
//     and the reference semantics.
//   * Engine::kEvent — discrete-event core: injections and fault kills are
//     heap events (EventQueue), and a blocked worm goes to sleep on the
//     exact buffer it is waiting for, woken by the credit return or channel
//     release that frees it. Idle routers cost nothing; idle cycles are
//     skipped wholesale.
//
// Both engines share the per-message step function, so they produce
// bit-identical SimResults on every workload; only wall-clock differs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "obs/telemetry.hpp"
#include "support/samples.hpp"
#include "support/stats.hpp"
#include "wormhole/event_queue.hpp"
#include "wormhole/fault_schedule.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb::wormhole {

enum class Engine : std::uint8_t {
  kCycle,  // poll every message every cycle (reference semantics)
  kEvent,  // event queue + sleep/wake on credits (default, fast when idle)
};

const char* engine_name(Engine engine);

// Resolves the LAMBMESH_ENGINE override ("cycle" | "event"); returns
// `fallback` when the variable is unset or empty. Throws
// std::invalid_argument on any other value.
Engine engine_from_env(Engine fallback);

struct SimConfig {
  int vcs_per_link = 2;
  int buffer_flits = 4;       // per virtual channel
  // Motionless cycles before the run is declared deadlocked. Precedence
  // rule against the telemetry watchdog: the effective watchdog trigger
  // is min(telemetry.watchdog_cycles or deadlock_threshold,
  // deadlock_threshold), so when telemetry is enabled a stall report is
  // always attached to the SimResult before (or in the same cycle as)
  // the deadlock declaration — a misconfigured watchdog_cycles larger
  // than the threshold can never lose the snapshot.
  int deadlock_threshold = 1000;
  std::int64_t max_cycles = 1'000'000;
  // Flit-level telemetry (time series, lifecycle events, watchdog). The
  // default is disabled and the simulator pays nothing for it; copy
  // obs::default_telemetry() here to honor LAMBMESH_TELEMETRY /
  // --telemetry.
  obs::TelemetryConfig telemetry;
  // Live fault injection: node/link kill events applied mid-simulation
  // (see fault_schedule.hpp). Empty by default; an empty schedule costs
  // one integer comparison per cycle.
  FaultSchedule fault_schedule;
  // Which core drives the run. LAMBMESH_ENGINE, when set, overrides this
  // field for every Network constructed in the process — that is how the
  // engine-equivalence CI lane reruns the whole test suite under each
  // engine without touching any call site.
  Engine engine = Engine::kEvent;
};

// Per-message resolution of a run with live faults.
enum class DeliveryOutcome : std::uint8_t {
  kPending,    // run ended (deadlock / max_cycles) before resolution
  kDelivered,  // tail flit ejected at the destination
  kLost,       // killed before any flit entered the network (incl.
               // cascades: a dependency that will never deliver)
  kPoisoned,   // killed with flits in flight; drained from the network
};

const char* delivery_outcome_name(DeliveryOutcome outcome);

struct Message {
  std::int64_t id = 0;
  Route route;
  int length_flits = 1;
  std::int64_t inject_cycle = 0;
  // Submission index of a message that must be fully delivered before
  // this one may inject (-1: none). Used by collective schedules where a
  // node forwards data only after receiving it.
  std::int64_t after = -1;
};

struct SimResult {
  std::int64_t delivered = 0;
  std::int64_t total_messages = 0;
  std::int64_t cycles = 0;
  bool deadlocked = false;
  // The engine that produced this result (after any LAMBMESH_ENGINE
  // override). Informational: every other field is engine-independent.
  Engine engine = Engine::kCycle;
  Accumulator latency;        // inject -> tail ejected, delivered messages
  Samples latency_samples;    // same data with exact quantiles
  Accumulator hops;           // route lengths
  Accumulator turns;          // route turns
  double flit_throughput = 0.0;  // flits delivered per cycle
  // Link load: flit-traversals per directed physical link over the run
  // (only links that carried traffic are counted).
  Accumulator link_load;
  std::int64_t flits_moved = 0;  // flit-traversals over every link
  // Latency decomposition over delivered messages (cycles): time queued
  // at the source before the head departed, and time lost to blocking
  // beyond the ideal pipelined transit of hops + flits - 1.
  Accumulator queue_cycles;
  Accumulator stall_cycles;
  // Watchdog snapshot, when the telemetry watchdog fired (else null).
  std::shared_ptr<const obs::StallReport> stall_report;
  // --- Live-fault accounting (all zero/empty without a schedule) ------
  std::int64_t lost = 0;      // killed before entering the network
  std::int64_t poisoned = 0;  // killed with flits in flight
  std::int64_t faults_applied = 0;  // schedule events applied in the run
  std::int64_t dead_channels = 0;   // directed links newly killed
  // The events actually applied — the "system diagnostic" output the
  // recovery loop feeds back into MachineManager::report_*.
  std::vector<FaultEvent> applied_faults;
  // Per submitted message, in submission order. Populated only when the
  // schedule was nonempty or some message did not deliver, so the
  // healthy fast path allocates nothing.
  std::vector<DeliveryOutcome> outcomes;

  bool all_delivered() const { return delivered == total_messages; }
  // Every message was resolved (nothing left kPending): delivered, or
  // accounted lost/poisoned by the fault schedule.
  bool all_resolved() const {
    return delivered + lost + poisoned == total_messages;
  }
  // Multi-line human-readable report: delivery, p50/p95/p99 latency, and
  // the queue/stall decomposition.
  std::string summary() const;
};

class Network {
 public:
  Network(const MeshShape& shape, const FaultSet& faults, SimConfig config);

  // Queues a message for injection at its route's source.
  void submit(Message message);

  // Runs until everything is delivered, deadlock, or max_cycles.
  SimResult run();

  // Non-null iff config.telemetry.enabled: callers attach route-load
  // counts before run() and introspect the collected series after.
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

 private:
  struct Buffer {
    std::int64_t owner = -1;  // message index or -1
    int occupancy = 0;
    std::int64_t passed = 0;  // flits that have left this buffer
    // Event engine: head of the intrusive list (linked through
    // MessageState::next_waiter) of messages sleeping until this buffer
    // returns a credit or releases its channel. -1: nobody waits.
    std::int64_t waiter_head = -1;
  };

  struct MessageState {
    Message msg;
    // Flits at "position" p sit in the buffer downstream of hop p;
    // position -1 is the source queue, position H means ejected.
    std::vector<int> count_at;       // size H (positions 0..H-1)
    std::vector<std::int64_t> crossed;  // flits that have traversed hop p
    // nodes[p] is the node the worm occupies before hop p (nodes[0] is
    // the source, nodes[H] the destination); precomputed at submit() so
    // node_before_hop is O(1) instead of an O(p) walk.
    std::vector<NodeId> nodes;
    int flits_at_source = 0;
    std::int64_t ejected = 0;
    std::int64_t start_cycle = -1;   // first flit left the source queue
    std::int64_t finish_cycle = -1;
    bool started = false;
    DeliveryOutcome outcome = DeliveryOutcome::kPending;
    // --- Event-engine sleep/wake state (unused by the cycle engine) ----
    std::int64_t next_waiter = -1;      // intrusive waiter-list link
    std::int64_t dep_waiter_head = -1;  // messages gated on my delivery
    std::int64_t asleep_on_buffer = -1; // buffer whose waiter list holds me
    std::int64_t asleep_on_dep = -1;    // message whose dep list holds me

    bool done() const { return ejected == msg.length_flits; }
    // Resolved one way or another: no further simulation work.
    bool finished() const { return outcome != DeliveryOutcome::kPending; }
  };

  // Outcome of a single flit-advance attempt. The distinction matters to
  // the event engine's sleep rule: kLinkBusy means some other worm moved
  // on that physical link *this cycle*, so retrying next cycle is always
  // productive; kVcBusy/kCredit can only clear through a credit return or
  // channel release on the target buffer — sleep there until it happens.
  enum class Advance : std::uint8_t { kMoved, kLinkBusy, kVcBusy, kCredit };

  std::int64_t buffer_index(NodeId from, const Hop& hop) const;
  // Attempts to move one flit of message m from position p to p+1. On
  // kVcBusy/kCredit, blocked_buffer_ holds the buffer that refused.
  Advance try_advance(MessageState& st, int p);
  NodeId node_before_hop(const MessageState& st, int p) const;
  // One simulation turn for message m at the current cycle: eligibility
  // checks, ejection, then head-first pipeline advance. Shared verbatim
  // by both engines — this is what makes their results bit-identical.
  void step_message(std::int64_t m, SimResult* result);
  // The idle fast-forward shared by both engines: when nothing moved and
  // nothing is in flight, jump to the next injection (never past a
  // scheduled fault). Returns true when it jumped (the caller restarts
  // its loop without the stagnation/telemetry tail).
  bool try_fast_forward(std::int64_t* stagnant);
  // --- Event-engine wake plumbing (no-ops for the cycle engine) -------
  void wake_message(std::int64_t m);
  void wake_buffer_waiters(std::int64_t buffer);
  void wake_dep_waiters(std::int64_t m);
  // Wakes every sleeper and clears all waiter lists; called after fault
  // application, whose drains free buffers wholesale.
  void wake_all_sleepers();
  void sleep_on_buffer(std::int64_t m, std::int64_t buffer);
  void sleep_on_dep(std::int64_t m, std::int64_t dep);
  void clear_awake(std::int64_t m);
  // Channel wait-for snapshot of the current (stalled) state, with any
  // wait-for cycle identified.
  obs::StallReport build_stall_report(std::int64_t stagnant) const;
  void record_delivery(const MessageState& st, SimResult* result);
  // Cold telemetry commits, kept out of line so the advance and eject
  // hot loops stay lean when telemetry is enabled (the inlined hook
  // bodies otherwise cost more in spills and icache than they execute).
  void commit_advance_telemetry(const MessageState& st, int q,
                                std::int64_t p, bool acquired,
                                std::int64_t released_buffer,
                                std::int64_t target_index);
  void commit_eject_telemetry(const MessageState& st, std::int64_t index,
                              bool released);
  // Stores a buffer's new occupancy into the telemetry mirror, if any.
  void mirror_occupancy(std::int64_t index, int occupancy) {
    if (occ_mirror_) {
      occ_mirror_[static_cast<std::size_t>(index)] =
          static_cast<std::uint8_t>(std::min(occupancy, 255));
    }
  }
  // --- Live fault injection (no-ops without a schedule) ---------------
  // Applies every schedule event due at the current cycle: marks the
  // killed channels dead, drains affected messages, cascades losses to
  // dependents. Returns the number of messages newly resolved.
  std::int64_t apply_due_faults(SimResult* result);
  // Whether st's unfinished route crosses a dead node or channel.
  bool route_poisoned(const MessageState& st) const;
  // Removes st's flits from every buffer it owns and releases the
  // channels, recording the outcome (kLost or kPoisoned).
  void drain_message(MessageState& st, SimResult* result);

  const MeshShape* shape_;
  const FaultSet* faults_;
  SimConfig config_;
  Engine engine_ = Engine::kCycle;  // config_.engine after env override
  bool event_mode_ = false;         // engine_ == Engine::kEvent
  std::vector<MessageState> messages_;
  std::vector<Buffer> buffers_;          // (directed link, vc) -> buffer
  std::vector<char> link_used_;          // per directed link, this cycle
  // Per (link, vc), whole run. int32: a single channel cannot carry 2^31
  // flits within the default cycle cap, and the narrow rows halve the
  // footprint of the telemetry window sweep that reads them.
  std::vector<std::int32_t> link_flits_;
  // Telemetry-only shadow of per-slot occupancy, one byte per channel:
  // the window close skims this dense array instead of striding a cache
  // line per two slots through the Buffer array. Each change stores
  // min(occupancy, 255), so it is exact for every buffer_flits (the
  // telemetry sample is a byte). Null data when telemetry is off.
  std::vector<std::uint8_t> occ_shadow_;
  std::uint8_t* occ_mirror_ = nullptr;  // occ_shadow_.data() or null
  std::int64_t cycle_ = 0;
  bool moved_this_cycle_ = false;
  std::int64_t delivered_ = 0;           // messages delivered this run
  std::int64_t flits_delivered_ = 0;     // flits ejected this run
  // Buffer that refused the last kVcBusy/kCredit try_advance.
  std::int64_t blocked_buffer_ = -1;
  // --- Event-engine state ---------------------------------------------
  EventQueue events_;               // injections + scheduled fault kills
  std::vector<char> awake_;         // per message: scheduled this cycle
  std::int64_t awake_count_ = 0;
  // Links whose usage bit was set this cycle; cleared sparsely instead of
  // the cycle engine's O(links) fill — the event core's win on big idle
  // meshes.
  std::vector<LinkId> touched_links_;
  // Live-fault state, allocated only when config_.fault_schedule is
  // nonempty; the hot loop's only cost with an empty schedule is the
  // next_fault_ bounds check.
  std::vector<FaultEvent> pending_faults_;  // sorted by cycle (stable)
  std::size_t next_fault_ = 0;
  std::vector<char> node_dead_;
  std::vector<char> link_dead_;  // per directed link
  std::int64_t finished_ = 0;    // delivered + lost + poisoned
  // Telemetry collector, allocated only when config_.telemetry.enabled;
  // every hook in the hot path hides behind one null check.
  std::unique_ptr<obs::Telemetry> telemetry_;
  // Blocked-advance tallies for the whole run, flushed to the metrics
  // registry by run(): physical link already used this cycle, virtual
  // channel owned by another worm, and credit (buffer-full) stalls.
  std::int64_t stall_link_busy_ = 0;
  std::int64_t stall_vc_busy_ = 0;
  std::int64_t stall_credit_ = 0;
};

}  // namespace lamb::wormhole
