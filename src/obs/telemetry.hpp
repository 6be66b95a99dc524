// Flit-level network telemetry for the wormhole simulator: windowed
// time-series sampling per virtual channel, message lifecycle events,
// latency decomposition records, and the stall-watchdog report types.
//
// Where obs/metrics.hpp answers "how much, over the whole run", this
// layer answers "where in the mesh and when in simulated time": every
// `sample_every` cycles the simulator closes a window, and each
// (directed link, virtual channel) that has carried traffic gets one
// ring-buffered sample of flit-traversals and buffer occupancy. Ring
// capacity bounds memory — long runs keep the most recent
// `ring_windows` windows per series.
//
// The whole tier is opt-in per Network via SimConfig::telemetry and
// costs nothing when disabled (the simulator guards every hook with one
// null-pointer check). `LAMBMESH_TELEMETRY` / `--telemetry DEST`
// follow the LAMBMESH_METRICS plumbing (see docs/OBSERVABILITY.md).
#pragma once

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
  // Cap on retained lifecycle events (drops record a counter, never fail).
  std::int64_t max_events = 1 << 20;
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
// every reachable value: the buffer caps at max_events (default 1M)
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

// Per-Network telemetry collector. All recording hooks are O(1)
// amortized and never throw; the owning simulator is expected to call
// them only when telemetry is enabled, and to close windows via
// end_window(). Not thread-safe — one collector per (single-threaded)
// simulation, matching wormhole::Network.
class Telemetry {
 public:
  Telemetry(const MeshShape& shape, int vcs_per_link, TelemetryConfig config);
  ~Telemetry();  // out-of-line: Series/NodeSeries are private to the .cpp

  const TelemetryConfig& config() const { return config_; }
  const MeshShape& shape() const { return shape_; }

  // --- Recording hooks -----------------------------------------------
  // Inline: these sit on the simulator's per-flit path (hundreds of
  // thousands of calls per run), so each must compile down to a flat
  // array increment at the call site. The cold first-touch and growth
  // paths stay out of line in the .cpp.
  // A flit traversed (link, vc) out of node `from` this cycle.
  void on_flit(NodeId from, LinkId link, int vc) {
    (void)from;  // series_at decodes the source node from the link id
    const auto slot = static_cast<std::size_t>(link * vcs_ + vc);
    if (!ch_live_[slot]) series_at(link, vc);
    ++ch_window_[slot];
  }
  // A flit left its source queue / was ejected at its destination. Pure
  // increments: node discovery happens at the window close, which scans
  // the flat counters (the close of the window a node's first flit lands
  // in — the same window hook-time discovery would record).
  void on_inject_flit(NodeId src) {
    ++node_inj_window_[static_cast<std::size_t>(src)];
  }
  void on_eject_flit(NodeId dst) {
    ++node_ej_window_[static_cast<std::size_t>(dst)];
  }
  void on_event(MsgEvent kind, std::int64_t msg, std::int64_t cycle,
                std::int64_t slot = -1) {
    // One predictable branch on the hot path: events_headroom_ folds the
    // lifecycle-enabled, max_events, and capacity checks into a single
    // bound (0 when lifecycle is off; min(capacity, max_events) once a
    // buffer exists), so the slow path only runs on growth or overflow.
    if (events_.size() >= events_headroom_) {
      on_event_slow(kind, msg, cycle, slot);
      return;
    }
    events_.push_back(LifecycleEvent{static_cast<std::int32_t>(msg),
                                     static_cast<std::int32_t>(cycle),
                                     static_cast<std::int32_t>(slot), kind});
  }
  void on_delivered(const LatencyRecord& record);
  // Zero-hook channel feed: `per_slot_flits` points at the simulator's
  // own cumulative per-(link * vcs + vc) flit counters (one entry per
  // channel slot, same layout as this collector's series table, must
  // outlive it). When set, on_flit is never needed — each window close
  // reads the counter deltas instead, so the simulator's advance path
  // carries no per-flit telemetry work at all. Window samples land in a
  // flat arena and are folded into the per-series rings lazily, on the
  // first read after a close. `occupancy` optionally points at a dense
  // per-slot buffer occupancy array (one byte per slot), replacing the
  // end_window probe with a linear skim.
  void set_flit_source(const std::int32_t* per_slot_flits,
                       const std::uint8_t* occupancy = nullptr);
  void set_stall_report(StallReport report);
  // Per-node route-construction load (RouteCache/NodeLoad counts), so
  // lamb-induced load concentration is plottable from the same dump.
  void set_route_load(std::vector<std::int32_t> counts);

  // Closes every window up to cycle / sample_every (plus the trailing
  // partial window when `final` is set). `occ(ctx, link, vc)` returns the
  // current buffer occupancy of a channel; it is consulted once per
  // active series per call, and may be null (occupancy reads 0). A plain
  // function pointer plus context keeps the simulator's per-cycle close
  // free of std::function dispatch.
  using OccupancyProbe = int (*)(void* ctx, LinkId link, int vc);
  void end_window(std::int64_t cycle, OccupancyProbe occ, void* ctx,
                  bool final = false);

  // --- Introspection (tests, exporters) ------------------------------
  std::int64_t windows() const { return windows_done_; }
  std::int64_t total_channel_flits() const;  // sums every series
  std::int64_t events_recorded() const {
    return static_cast<std::int64_t>(events_.size());
  }
  std::int64_t events_dropped() const { return events_dropped_; }
  const std::vector<LatencyRecord>& latencies() const { return latencies_; }
  const StallReport* stall_report() const { return stall_report_.get(); }

  // Oldest-first unrolled samples of one channel's ring, with the window
  // index of the first entry. Returns false when the channel never
  // carried a flit (no series was allocated).
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
  struct Series;
  struct NodeSeries;

  Series& series_at(LinkId link, int vc);
  NodeSeries& node_series_at(NodeId node);
  void grow_events();  // out of line: amortized vector growth for events_
  // Cold path of on_event: lifecycle disabled, buffer growth, or the
  // max_events drop. Re-derives events_headroom_ after growing.
  void on_event_slow(MsgEvent kind, std::int64_t msg, std::int64_t cycle,
                     std::int64_t slot);
  // Source-fed mode: fold the flat sample arena into the per-series
  // rings so the read paths (accessors, dumps) see ordinary Series
  // state. No-op when hook-fed or already current.
  void materialize_rings() const;

  MeshShape shape_;
  int vcs_ = 1;
  TelemetryConfig config_;
  std::int64_t windows_done_ = 0;

  // (link * vcs + vc) -> series, stored by value so window flushes walk
  // contiguous memory instead of chasing per-slot heap pointers; the
  // live flags mark first-flit initialization and active_ lists the live
  // slots so flushes touch only channels that have carried traffic.
  std::vector<Series> channels_;
  std::vector<char> ch_live_;
  std::vector<std::int64_t> active_;
  std::vector<NodeSeries> nodes_;
  std::vector<char> node_live_;
  std::vector<NodeId> active_nodes_;

  // Flat per-slot counters for the current (still-open) window. The
  // per-flit hooks touch only these; end_window folds them into the
  // Series/NodeSeries rings and totals. Keeping the hot path to a plain
  // array increment holds the telemetry-enabled budget (see
  // BENCH_wormhole.json telemetry_on_overhead_pct).
  std::vector<std::int64_t> ch_window_;
  std::vector<std::int64_t> node_inj_window_;
  std::vector<std::int64_t> node_ej_window_;

  // External cumulative channel counters (set_flit_source) and the value
  // of each at the last close; null when channels are hook-fed.
  const std::int32_t* flit_source_ = nullptr;
  std::vector<std::int32_t> flit_synced_;
  // Dense per-slot occupancy feed (set_flit_source); null falls back
  // to the end_window probe.
  const std::uint8_t* occ_source_ = nullptr;
  // Source-fed window samples, window-major: entry w % ring_windows is
  // window w's buffer, indexed directly by slot. A window's buffer is
  // written once, sequentially, at its close — row-major layouts put
  // every slot's sample on its own cache line and turn each close into a
  // 6000-line miss stream. Buffers are allocated uninitialized at full
  // slot capacity and recycled in place as the ring wraps.
  // materialize_rings() folds them into the Series rings when a reader
  // needs them (tracked by arena_synced_windows_).
  std::vector<std::unique_ptr<ChannelSample[]>> ring_arena_;
  std::vector<ChannelSample*> arena_pending_;  // close-time scratch
  // Per slot, the window the slot's first flit landed in, or -1 once
  // materialize_rings() has built the slot's Series metadata (the close
  // sweep defers that cold work to the first read).
  std::vector<std::int32_t> src_first_window_;
  mutable std::int64_t arena_synced_windows_ = -1;

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
