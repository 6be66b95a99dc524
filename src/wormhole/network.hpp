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
  // One (link, vc) input buffer; its flit count lives in occupancy_.
  struct Buffer {
    std::int64_t owner = -1;  // message index or -1
    std::int64_t passed = 0;  // flits that have left this buffer
    // Event engine: head of the intrusive list (linked through
    // MessageState::next_waiter) of messages sleeping until this buffer
    // returns a credit or releases its channel. -1: nobody waits.
    std::int64_t waiter_head = -1;
  };

  // One hop of a submitted route, resolved once by submit(): the (link,
  // vc) buffer the hop enters and its physical link, with the worm's
  // flits now in that buffer ("position" p is the buffer downstream of
  // hop p) and the flits that have crossed the hop. 32-bit: the
  // constructor caps the slot count below 2^31. `count` and `crossed`
  // are not adjacent, so the compiler cannot fuse their increments into
  // one 8-byte access, which the next position's 4-byte decrement of
  // `count` would then stall on (a store-forwarding miss every
  // pipelined move).
  struct HopRecord {
    std::int32_t buffer = 0;
    std::int32_t count = 0;
    std::int32_t link = 0;
    std::int32_t crossed = 0;
  };

  struct MessageState {
    Message msg;
    std::vector<HopRecord> hops;  // one per route hop
    // Occupied span. Position -1 is the source queue, position H means
    // ejected. No flit sits below `low` (the tail's position), and none
    // above `front` (the furthest position the head has reached), so a
    // step walks [low, front] instead of the whole route.
    int low = -1;
    int front = -1;
    int flits_at_source = 0;
    // Telemetry: the window-close epoch in which the worm last moved, and
    // its tail position, source queue and ejected count before its first
    // move of that epoch. The next close expands them into the slots and
    // endpoint counts the worm changed (flush_moved_worms).
    std::int64_t moved_epoch = -1;
    int epoch_low = -1;
    int epoch_source = 0;
    std::int64_t epoch_ejected = 0;
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

  // The node a hop leaves from, decoded from its link id (the inverse of
  // MeshShape::link_id); only the fault and stall-report paths need it.
  NodeId hop_source(const HopRecord& rec) const {
    return rec.link / (2 * shape_->dim());
  }
  // Attempts to move one flit of message m from position p to p+1. On
  // kVcBusy/kCredit, blocked_buffer_ holds the buffer that refused.
  Advance try_advance(MessageState& st, HopRecord* hops, int p);
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
  // Lifecycle-event commits. The advance commit runs on about a third of
  // the moves of a saturated run, so it is inlined: a call there cost
  // more than the events it records. The eject commit stays out of line.
  void commit_advance_telemetry(const MessageState& st, int q,
                                std::int64_t p, bool acquired,
                                std::int64_t released_buffer,
                                std::int64_t target_index);
  void commit_eject_telemetry(const MessageState& st, std::int64_t index,
                              bool released);
  // Telemetry: records that message m moved this close epoch, with its
  // state before the step that moved it. One check per advancing step
  // replaces a mark per flit move.
  void note_moved(MessageState& st, std::int64_t m, int low, int source,
                  std::int64_t ejected) {
    if (st.moved_epoch == epoch_) return;
    st.moved_epoch = epoch_;
    st.epoch_low = low;
    st.epoch_source = source;
    st.epoch_ejected = ejected;
    moved_worms_.push_back(m);
  }
  // Marks, for the window close about to run, every slot a worm that
  // moved this epoch could have changed — its positions from the tail it
  // had before its first move up to its head — and adds its injected and
  // ejected flits to its endpoints; then opens the next epoch.
  void flush_moved_worms();
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
  // Per (link, vc), the flits in the buffer. Dense, so the telemetry
  // window close reads a touched slot's occupancy straight from it.
  std::vector<std::int32_t> occupancy_;
  std::vector<char> link_used_;          // per directed link, this cycle
  // Per (link, vc), flits that entered the buffer over the whole run.
  // int32: a single channel cannot carry 2^31 flits within the default
  // cycle cap.
  std::vector<std::int32_t> link_flits_;
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
  std::int64_t epoch_ = 0;                 // window closes so far
  std::vector<std::int64_t> moved_worms_;  // messages that moved this epoch
  // Blocked-advance tallies for the whole run, flushed to the metrics
  // registry by run(): physical link already used this cycle, virtual
  // channel owned by another worm, and credit (buffer-full) stalls.
  std::int64_t stall_link_busy_ = 0;
  std::int64_t stall_vc_busy_ = 0;
  std::int64_t stall_credit_ = 0;
};

}  // namespace lamb::wormhole
