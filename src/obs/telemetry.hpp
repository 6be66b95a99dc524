// Flit-level network telemetry for the wormhole simulator: windowed
// time-series sampling per virtual channel, message lifecycle events,
// latency decomposition records, and the stall-watchdog report types.
//
// Where obs/metrics.hpp answers "how much, over the whole run", this
// layer answers "where in the mesh and when in simulated time": every
// `sample_every` cycles the simulator closes a window, and each
// (directed link, virtual channel) that has carried traffic gets one
// sample of flit-traversals and buffer occupancy. Samples live in a
// window-major ring, so long runs keep the most recent `ring_windows`
// windows per series and memory stays bounded.
//
// The whole tier is opt-in per Network via SimConfig::telemetry and
// costs nothing when disabled (the simulator guards every hook with one
// null-pointer check). `LAMBMESH_TELEMETRY` / `--telemetry DEST`
// follow the LAMBMESH_METRICS plumbing (see docs/OBSERVABILITY.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mesh/mesh.hpp"

namespace lamb::obs {

struct TelemetryConfig {
  bool enabled = false;
  std::int64_t sample_every = 64;  // cycles per sampling window
  int ring_windows = 256;          // windows retained per series
  bool lifecycle = true;           // record per-message events in the dump
  bool watchdog = true;            // wait-for snapshot when flits stop moving
  // Motionless cycles before the watchdog fires; 0 means "at the
  // simulator's deadlock threshold" (the snapshot is taken just before
  // the run is declared dead). Precedence rule: the simulator clamps
  // this to its SimConfig::deadlock_threshold, so the stall report is
  // always attached no later than the cycle that declares deadlock — a
  // value larger than the threshold behaves exactly like 0.
  std::int64_t watchdog_cycles = 0;
  // Dump destination: "" (none) or "csv:<path>". With several
  // Network::run()s per process, run r > 0 appends ".r" to the path so
  // every dump survives.
  std::string dump;
};

// One retained sampling window of a channel series.
struct ChannelSample {
  std::uint16_t flits = 0;     // flit-traversals during the window
  std::uint8_t occupancy = 0;  // buffer occupancy at the window boundary
};

// Message lifecycle event kinds. kAcquire fires when a head flit
// allocates a fresh virtual channel, kRoundSwitch additionally when that
// channel starts a new routing round (hop.vc changed), kRelease when the
// tail drains a channel, kPoison when a live fault (wormhole
// FaultSchedule) kills the message and the simulator drains its flits.
enum class MsgEvent : std::uint8_t {
  kInject,
  kAcquire,
  kRoundSwitch,
  kRelease,
  kEject,
  kPoison,
};

const char* msg_event_name(MsgEvent kind);

// Packed to 16 bytes: saturated runs log one event per channel
// acquisition and release, so the buffer streams megabytes through the
// cache — half-width fields halve that traffic. The narrow types cover
// every reachable value: the buffer caps at Telemetry::kMaxEvents (1M)
// long before a sim could overflow an int32 cycle or message id, and no
// mesh has 2^31 channels. The channel is kept as the flat slot
// (link * vcs + vc, -1 for endpoint events) exactly as the simulator
// hands it over — splitting it back into (link, vc) takes an integer
// division, which belongs in the dump path, not in a hot commit that
// runs once per acquisition.
struct LifecycleEvent {
  std::int32_t msg = 0;
  std::int32_t cycle = 0;
  std::int32_t slot = -1;  // channel slot; -1 for inject/eject/poison
  MsgEvent kind = MsgEvent::kInject;
};
static_assert(sizeof(LifecycleEvent) <= 16);

// End-to-end latency decomposition of one delivered message:
//   queue   = start - inject        (waiting at the source for the head)
//   transit = hops + flits - 1      (ideal pipelined time)
//   stall   = (finish - inject) - queue - transit  (everything blocked)
struct LatencyRecord {
  std::int64_t msg = 0;
  std::int64_t inject = 0;  // requested injection cycle
  std::int64_t start = 0;   // first flit left the source
  std::int64_t finish = 0;  // tail ejected
  std::int32_t hops = 0;
  std::int32_t flits = 0;

  std::int64_t queue_cycles() const { return start - inject; }
  // hops == 0 (src == dst) delivers without touching the network.
  std::int64_t transit_cycles() const {
    return hops == 0 ? 0 : hops + flits - 1;
  }
  std::int64_t stall_cycles() const {
    return (finish - inject) - queue_cycles() - transit_cycles();
  }
};

// One edge of the channel wait-for graph: `waiter`'s head flit cannot
// advance onto (link, vc) because `holder` occupies it (ownership or
// credit). holder == -1 marks a transient non-ownership block.
struct WaitEdge {
  std::int64_t waiter = -1;  // message id
  std::int64_t holder = -1;  // message id, or -1
  LinkId link = -1;
  int vc = -1;
  NodeId at = -1;  // node where the waiter's head sits
  const char* reason = "";  // "vc_busy" | "credit" | "link_busy"
  bool on_cycle = false;
};

// Watchdog snapshot: taken when no flit has advanced for the configured
// number of cycles while traffic is still in flight. If the wait-for
// graph contains a cycle, the run is provably deadlocked (the paper's
// requirement (iii) violated); `cycle_msgs` lists its members.
struct StallReport {
  std::int64_t cycle = 0;           // simulated cycle of the snapshot
  std::int64_t stalled_cycles = 0;  // length of the motionless streak
  std::int64_t waiting_injection = 0;  // messages not yet started
  std::vector<WaitEdge> edges;
  std::vector<std::int64_t> cycle_msgs;  // wait-for cycle members (may be empty)

  bool has_cycle() const { return !cycle_msgs.empty(); }
  // Human-readable dump: per-node blocked lists and the cycle, if any.
  std::string render(const MeshShape& shape) const;
};

// Per-Network telemetry collector. The channel series are read straight
// from the simulator's own per-slot arrays (slot = link * vcs + vc over
// the dense link_id space): its cumulative flit counters and its buffer
// occupancy, saturated to a byte. Each window close reads both, so the
// simulator's advance path carries no per-flit channel hook. The
// recording hooks are O(1) amortized and never throw; the owning
// simulator calls them only when telemetry is enabled. Not thread-safe —
// one collector per (single-threaded) simulation, matching
// wormhole::Network.
class Telemetry {
 public:
  // Lifecycle events retained per run; later ones count as dropped.
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 20;

  // `channel_flits` and `occupancy` hold one entry per channel slot and
  // must outlive the collector.
  Telemetry(const MeshShape& shape, int vcs_per_link, TelemetryConfig config,
            const std::int32_t* channel_flits, const std::uint8_t* occupancy);

  const TelemetryConfig& config() const { return config_; }
  const MeshShape& shape() const { return shape_; }

  // --- Recording hooks -----------------------------------------------
  // Inline: the endpoint hooks run once per injected or ejected flit, so
  // each is a bare increment of a cumulative per-node counter; the next
  // window close reads the deltas, as it does for the channel counters.
  void on_inject_flit(NodeId src) {
    ++node_flits_[static_cast<std::size_t>(src)].injected;
  }
  void on_eject_flit(NodeId dst) {
    ++node_flits_[static_cast<std::size_t>(dst)].ejected;
  }
  void on_event(MsgEvent kind, std::int64_t msg, std::int64_t cycle,
                std::int64_t slot = -1) {
    // One predictable branch on the hot path: events_headroom_ folds the
    // lifecycle-enabled, kMaxEvents, and capacity checks into a single
    // bound (0 until the first recorded event reserves the buffer), so the
    // slow path only runs once, when lifecycle is off, or on overflow.
    if (events_.size() >= events_headroom_) {
      on_event_slow(kind, msg, cycle, slot);
      return;
    }
    events_.push_back(LifecycleEvent{static_cast<std::int32_t>(msg),
                                     static_cast<std::int32_t>(cycle),
                                     static_cast<std::int32_t>(slot), kind});
  }
  void on_delivered(const LatencyRecord& record);
  void set_stall_report(StallReport report);
  // Per-node route-construction load (RouteCache/NodeLoad counts), so
  // lamb-induced load concentration is plottable from the same dump.
  void set_route_load(std::vector<std::int32_t> counts);

  // Closes every window up to cycle / sample_every (plus the trailing
  // partial window when `final` is set). Counts since the last close
  // belong to its first window; any further windows of the same close are
  // idle padding (the simulator fast-forwarded, so nothing moved and
  // occupancy held).
  void end_window(std::int64_t cycle, bool final = false);

  // --- Introspection (tests, exporters) ------------------------------
  std::int64_t windows() const { return windows_done_; }
  std::int64_t total_channel_flits() const;  // sums the simulator's counters
  std::int64_t events_recorded() const {
    return static_cast<std::int64_t>(events_.size());
  }
  std::int64_t events_dropped() const { return events_dropped_; }
  const std::vector<LatencyRecord>& latencies() const { return latencies_; }
  const StallReport* stall_report() const { return stall_report_.get(); }

  // Oldest-first retained samples of one channel, with the window index
  // of the first entry. Returns false when the channel had carried no
  // flit by the last window close.
  bool channel_series(LinkId link, int vc, std::int64_t* first_window,
                      std::vector<ChannelSample>* out) const;

  // --- Export ---------------------------------------------------------
  // Writes the CSV dump to config().dump, at telemetry_run_path for the
  // process's next dumping run. Returns false when no csv:<path> dump is
  // configured, or, after printing "error: cannot write <path>" to
  // stderr, when the file cannot be opened, written or closed.
  bool write(std::int64_t cycles) const;
  bool write_csv(const std::string& path, std::int64_t cycles) const;

 private:
  struct NodeFlits {
    std::int32_t injected = 0;
    std::int32_t ejected = 0;
  };
  struct NodeSample {
    std::uint16_t injected = 0;
    std::uint16_t ejected = 0;
  };

  // Window-major sample ring, shared by the channel and the node series:
  // buffer w % capacity holds window w, indexed directly by slot. A
  // close writes each pending window's buffer once, sequentially — a
  // slot-major layout would put every slot's sample on its own cache line
  // and turn each close into a miss stream. Buffers are allocated
  // uninitialized at full slot count on first use and recycled in place
  // as the ring wraps; only windows at or after a slot's `first` are
  // ever read back for it.
  template <class Sample>
  struct Ring {
    Ring(std::size_t slots, int capacity)
        : windows(static_cast<std::size_t>(capacity)), first(slots, -1) {}

    // Points `pending` at the surviving windows of [base, base + n). When
    // n outruns the ring, window `base` is already evicted and so are the
    // counts that belong to it.
    void open(std::int64_t base, std::int64_t n);
    // Records one slot's samples for the open close: `counted` for window
    // `base`, `idle` for every later pending window.
    void put(std::size_t slot, Sample counted, Sample idle) {
      pending[0][slot] = base_survives ? counted : idle;
      for (std::size_t k = 1; k < pending.size(); ++k) pending[k][slot] = idle;
    }
    // First retained window of a slot once `done` windows have closed.
    std::int64_t retained_from(std::size_t slot, std::int64_t done) const {
      return std::max<std::int64_t>(
          first[slot], done - static_cast<std::int64_t>(windows.size()));
    }
    const Sample& at(std::int64_t window, std::size_t slot) const {
      return windows[static_cast<std::size_t>(window) % windows.size()][slot];
    }

    std::vector<std::unique_ptr<Sample[]>> windows;
    // Per slot, the window its first count landed in; -1 until then.
    std::vector<std::int64_t> first;
    std::vector<Sample*> pending;
    bool base_survives = true;
  };

  // Cold path of on_event: lifecycle disabled, the first event (which
  // reserves the whole buffer), or the kMaxEvents drop.
  void on_event_slow(MsgEvent kind, std::int64_t msg, std::int64_t cycle,
                     std::int64_t slot);

  MeshShape shape_;
  int vcs_ = 1;
  TelemetryConfig config_;
  std::int64_t windows_done_ = 0;

  // The simulator's cumulative per-slot flit counters and occupancy
  // bytes, and each counter's value at the last close.
  const std::int32_t* channel_flits_;
  const std::uint8_t* occupancy_;
  std::vector<std::int32_t> channel_synced_;
  Ring<ChannelSample> channels_;
  // Cumulative per-node endpoint counters (the hooks above) and their
  // values at the last close.
  std::vector<NodeFlits> node_flits_;
  std::vector<NodeFlits> node_synced_;
  Ring<NodeSample> nodes_;

  std::vector<LifecycleEvent> events_;
  std::size_t events_headroom_ = 0;  // see on_event
  std::int64_t events_dropped_ = 0;
  std::vector<LatencyRecord> latencies_;
  std::unique_ptr<StallReport> stall_report_;
  std::vector<std::int32_t> route_load_;
};

// Process-default telemetry configuration, bootstrapped once from the
// environment: LAMBMESH_TELEMETRY (csv:<path> dump, enables the tier; a
// value outside that grammar prints one error line and leaves it off),
// LAMBMESH_TELEMETRY_SAMPLE (window size, cycles), LAMBMESH_TELEMETRY_RING
// (windows retained), LAMBMESH_TELEMETRY_WATCHDOG (0 disables). Benches
// copy this into SimConfig::telemetry.
TelemetryConfig default_telemetry();

// Enables telemetry with dump destination `dest` (csv:<path>),
// overriding LAMBMESH_TELEMETRY: the `--telemetry DEST` flag of
// io::apply_process_flags, which checks DEST first.
void telemetry_init(const std::string& dest);

// Dump path for the `run`-th dumping Network of this process: the base
// destination path for run 0, "<path>.<run>" afterwards.
std::string telemetry_run_path(const std::string& dest, std::int64_t run);

}  // namespace lamb::obs
