#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "obs/export.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace lamb::obs {

namespace {

std::uint16_t sat16(std::int64_t v) {
  return static_cast<std::uint16_t>(std::clamp<std::int64_t>(v, 0, 0xFFFF));
}

std::uint8_t sat8(std::int64_t v) {
  return static_cast<std::uint8_t>(std::clamp<std::int64_t>(v, 0, 0xFF));
}

// The bootstrapped process default, overridden by telemetry_init().
TelemetryConfig& mutable_default() {
  static TelemetryConfig config = [] {
    TelemetryConfig c;
    if (const std::optional<DumpDest> dest =
            env_dump_dest("LAMBMESH_TELEMETRY", kTelemetryDumps)) {
      c.enabled = true;
      c.dump = "csv:" + dest->path;
    }
    c.sample_every =
        std::max<long>(1, env_long("LAMBMESH_TELEMETRY_SAMPLE", 64));
    c.ring_windows = static_cast<int>(
        std::max<long>(1, env_long("LAMBMESH_TELEMETRY_RING", 256)));
    c.watchdog = env_long("LAMBMESH_TELEMETRY_WATCHDOG", 1) != 0;
    return c;
  }();
  return config;
}

}  // namespace

const char* msg_event_name(MsgEvent kind) {
  switch (kind) {
    case MsgEvent::kInject:
      return "inject";
    case MsgEvent::kAcquire:
      return "acquire";
    case MsgEvent::kRoundSwitch:
      return "round_switch";
    case MsgEvent::kRelease:
      return "release";
    case MsgEvent::kEject:
      return "eject";
    case MsgEvent::kPoison:
      return "poison";
  }
  return "?";
}

// --- Ring-buffered series --------------------------------------------------

struct Telemetry::Series {
  LinkId link = 0;
  int vc = 0;
  NodeId from = 0;
  int dim = 0;
  int dir = +1;
  // Flits over the whole run, synchronized from the flat per-window
  // counter (ch_window_) at each window close. The hot on_flit path only
  // touches the flat arrays; this struct is cold until a close.
  std::int64_t total = 0;
  std::int64_t first_window = 0;  // window index of ring[head]
  std::size_t head = 0;           // oldest entry once the ring is full
  std::vector<ChannelSample> ring;

  void push(ChannelSample sample, int cap) {
    if (static_cast<int>(ring.size()) < cap) {
      ring.push_back(sample);
    } else {
      ring[head] = sample;
      head = (head + 1) % ring.size();
      ++first_window;
    }
  }
};

struct Telemetry::NodeSeries {
  NodeId node = 0;
  std::int64_t first_window = 0;
  std::size_t head = 0;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ring;

  void push(std::uint16_t inj, std::uint16_t ej, int cap) {
    if (static_cast<int>(ring.size()) < cap) {
      ring.emplace_back(inj, ej);
    } else {
      ring[head] = {inj, ej};
      head = (head + 1) % ring.size();
      ++first_window;
    }
  }
};

Telemetry::Telemetry(const MeshShape& shape, int vcs_per_link,
                     TelemetryConfig config)
    : shape_(shape), vcs_(std::max(1, vcs_per_link)), config_(std::move(config)) {
  config_.sample_every = std::max<std::int64_t>(1, config_.sample_every);
  config_.ring_windows = std::max(1, config_.ring_windows);
  // link_id() indexes the dense (node, dim, dir) space, which is larger
  // than num_links() on non-wrapping meshes (boundary ids stay unused).
  channels_.resize(
      static_cast<std::size_t>(shape_.size() * shape_.dim() * 2 * vcs_));
  ch_live_.assign(channels_.size(), 0);
  ch_window_.assign(channels_.size(), 0);
  nodes_.resize(static_cast<std::size_t>(shape_.size()));
  node_live_.assign(nodes_.size(), 0);
  node_inj_window_.assign(nodes_.size(), 0);
  node_ej_window_.assign(nodes_.size(), 0);
}

Telemetry::~Telemetry() = default;

Telemetry::Series& Telemetry::series_at(LinkId link, int vc) {
  const std::int64_t slot = link * vcs_ + vc;
  Series& entry = channels_[static_cast<std::size_t>(slot)];
  if (!ch_live_[static_cast<std::size_t>(slot)]) {
    ch_live_[static_cast<std::size_t>(slot)] = 1;
    entry.link = link;
    entry.vc = vc;
    // link_id = (from * dim + j) * 2 + (Pos ? 1 : 0); invert it.
    entry.from = link / (2 * shape_.dim());
    entry.dim = static_cast<int>((link / 2) % shape_.dim());
    entry.dir = (link & 1) != 0 ? +1 : -1;
    entry.first_window = windows_done_;
    if (flit_source_ != nullptr) {
      // Source-fed: samples go to the arena (indexed by slot); the ring is
      // built lazily by materialize_rings(), so no allocation here.
    } else {
      // Full steady-state capacity up front: rings fill to ring_windows
      // and then wrap, so growing them stepwise would just spread
      // thousands of reallocations across the window closes.
      entry.ring.reserve(static_cast<std::size_t>(config_.ring_windows));
    }
    active_.push_back(slot);
  }
  return entry;
}

Telemetry::NodeSeries& Telemetry::node_series_at(NodeId node) {
  NodeSeries& entry = nodes_[static_cast<std::size_t>(node)];
  if (!node_live_[static_cast<std::size_t>(node)]) {
    node_live_[static_cast<std::size_t>(node)] = 1;
    entry.node = node;
    entry.first_window = windows_done_;
    entry.ring.reserve(static_cast<std::size_t>(config_.ring_windows));
    active_nodes_.push_back(node);
  }
  return entry;
}

void Telemetry::grow_events() {
  // Saturated runs record hundreds of thousands of acquire/release
  // events. Reserving the (default) max_events cap outright is one lazy
  // mmap — pages fault only as events land — while doubling from small
  // would copy and re-fault megabytes at every growth step. Caps above
  // the default still double from there to bound the virtual footprint.
  const auto want = std::max<std::size_t>(
      events_.capacity() * 2,
      static_cast<std::size_t>(
          std::min<std::int64_t>(config_.max_events, 1 << 20)));
  events_.reserve(want);
}

void Telemetry::on_delivered(const LatencyRecord& record) {
  latencies_.push_back(record);
}

void Telemetry::on_event_slow(MsgEvent kind, std::int64_t msg,
                              std::int64_t cycle, std::int64_t slot) {
  if (!config_.lifecycle) return;
  if (static_cast<std::int64_t>(events_.size()) >= config_.max_events) {
    ++events_dropped_;
    return;
  }
  grow_events();
  events_headroom_ = std::min(events_.capacity(),
                              static_cast<std::size_t>(config_.max_events));
  events_.push_back(LifecycleEvent{static_cast<std::int32_t>(msg),
                                   static_cast<std::int32_t>(cycle),
                                   static_cast<std::int32_t>(slot), kind});
}

void Telemetry::set_flit_source(const std::int32_t* per_slot_flits,
                                const std::uint8_t* occupancy) {
  flit_source_ = per_slot_flits;
  flit_synced_.assign(channels_.size(), 0);
  occ_source_ = occupancy;
  ring_arena_.clear();
  ring_arena_.resize(static_cast<std::size_t>(config_.ring_windows));
  src_first_window_.assign(channels_.size(), -1);
  arena_synced_windows_ = -1;
}

void Telemetry::set_stall_report(StallReport report) {
  stall_report_ = std::make_unique<StallReport>(std::move(report));
}

void Telemetry::set_route_load(std::vector<std::int32_t> counts) {
  route_load_ = std::move(counts);
}

void Telemetry::end_window(std::int64_t cycle, OccupancyProbe occ, void* ctx,
                           bool final) {
  std::int64_t target = cycle / config_.sample_every;
  if (final && cycle % config_.sample_every != 0) ++target;
  if (target <= windows_done_) return;
  const std::int64_t n = target - windows_done_;
  // Flits accumulated since the last flush belong to the earliest pending
  // window; padding windows (the simulator fast-forwarded through idle
  // time) carry no traffic, and occupancy is unchanged while nothing
  // moves, so one probe per series covers every pending window.
  if (flit_source_ != nullptr) {
    // Source-fed channels: one linear pass over the simulator's
    // cumulative counters; a slot becomes live the first close after its
    // first flit, which is the window that flit belongs to. The steady
    // state touches only flat arrays — counter, synced value, strided
    // occupancy, arena sample — never the Series structs, which are
    // rebuilt lazily by materialize_rings() when a reader needs them.
    const std::int64_t cap = config_.ring_windows;
    const std::int64_t base = windows_done_;
    // Window base + k lands at arena position (base + k) % cap; when n
    // outruns the ring (a huge fast-forward) the first n - cap windows
    // are already evicted, so start at the oldest surviving one.
    const std::int64_t k0 = n > cap ? n - cap : 0;
    arena_pending_.clear();
    for (std::int64_t k = k0; k < n; ++k) {
      auto& buf = ring_arena_[static_cast<std::size_t>((base + k) % cap)];
      if (!buf) {
        buf = std::make_unique_for_overwrite<ChannelSample[]>(
            channels_.size());
      }
      arena_pending_.push_back(buf.get());
    }
    const std::int64_t slots = static_cast<std::int64_t>(channels_.size());
    for (std::int64_t slot = 0; slot < slots; ++slot) {
      const std::int32_t cum = flit_source_[slot];
      if (!ch_live_[static_cast<std::size_t>(slot)]) {
        if (cum == 0) continue;
        // Deferred discovery: only mark the slot and remember which
        // window its first flit landed in; the Series metadata and
        // active_ entry are built by materialize_rings() when a reader
        // asks, keeping this sweep free of cold Series writes.
        ch_live_[static_cast<std::size_t>(slot)] = 1;
        src_first_window_[static_cast<std::size_t>(slot)] =
            static_cast<std::int32_t>(base);
      }
      const std::int32_t window_flits =
          cum - flit_synced_[static_cast<std::size_t>(slot)];
      flit_synced_[static_cast<std::size_t>(slot)] = cum;
      int occ_raw = 0;
      if (occ_source_ != nullptr) {
        occ_raw = occ_source_[slot];
      } else if (occ != nullptr) {
        // Decode (link, vc) from the slot directly: with deferred
        // discovery the Series metadata may not be built yet.
        occ_raw = occ(ctx, slot / vcs_, static_cast<int>(slot % vcs_));
      }
      const std::uint8_t occ_now = sat8(occ_raw);
      const auto row = static_cast<std::size_t>(slot);
      arena_pending_[0][row] = ChannelSample{sat16(window_flits), occ_now};
      for (std::size_t k = 1; k < arena_pending_.size(); ++k) {
        arena_pending_[k][row] = ChannelSample{0, occ_now};
      }
    }
    arena_synced_windows_ = -1;  // readers re-materialize
  } else {
    for (const std::int64_t slot : active_) {
      Series& s = channels_[static_cast<std::size_t>(slot)];
      const std::int64_t window_flits =
          ch_window_[static_cast<std::size_t>(slot)];
      ch_window_[static_cast<std::size_t>(slot)] = 0;
      s.total += window_flits;
      const std::uint8_t occ_now = sat8(occ ? occ(ctx, s.link, s.vc) : 0);
      s.push(ChannelSample{sat16(window_flits), occ_now},
             config_.ring_windows);
      for (std::int64_t w = 1; w < n; ++w) {
        s.push(ChannelSample{0, occ_now}, config_.ring_windows);
      }
    }
  }
  // All nodes, not just live ones: the endpoint hooks are bare
  // increments, so discovery happens here, at the close of the window a
  // node's first flit landed in.
  const std::int64_t node_count = static_cast<std::int64_t>(nodes_.size());
  for (std::int64_t node = 0; node < node_count; ++node) {
    const std::int64_t inj = node_inj_window_[static_cast<std::size_t>(node)];
    const std::int64_t ej = node_ej_window_[static_cast<std::size_t>(node)];
    if (!node_live_[static_cast<std::size_t>(node)]) {
      if ((inj | ej) == 0) continue;
      node_series_at(node);
    }
    NodeSeries& s = nodes_[static_cast<std::size_t>(node)];
    node_inj_window_[static_cast<std::size_t>(node)] = 0;
    node_ej_window_[static_cast<std::size_t>(node)] = 0;
    s.push(sat16(inj), sat16(ej), config_.ring_windows);
    for (std::int64_t w = 1; w < n; ++w) s.push(0, 0, config_.ring_windows);
  }
  windows_done_ = target;
}

std::int64_t Telemetry::total_channel_flits() const {
  if (flit_source_ != nullptr) {
    // The source counters are the ground truth, including flits in the
    // still-open window of slots not yet marked live.
    std::int64_t total = 0;
    for (std::size_t slot = 0; slot < channels_.size(); ++slot) {
      total += flit_source_[slot];
    }
    return total;
  }
  std::int64_t total = 0;
  for (const std::int64_t slot : active_) {
    // Series totals sync at window closes; add the still-open window.
    total += channels_[static_cast<std::size_t>(slot)].total +
             ch_window_[static_cast<std::size_t>(slot)];
  }
  return total;
}

void Telemetry::materialize_rings() const {
  if (flit_source_ == nullptr || arena_synced_windows_ == windows_done_) {
    return;
  }
  // Logically const: rebuilds the Series rings as a cache of the arena
  // (same observable state a hook-fed collector would hold).
  auto* self = const_cast<Telemetry*>(this);
  const std::int64_t cap = config_.ring_windows;
  const std::int64_t slots = static_cast<std::int64_t>(channels_.size());
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    if (!ch_live_[static_cast<std::size_t>(slot)]) continue;
    Series& s = self->channels_[static_cast<std::size_t>(slot)];
    const std::int32_t fw = src_first_window_[static_cast<std::size_t>(slot)];
    if (fw >= 0) {
      // First read since this slot went live: finish the discovery the
      // close sweep deferred.
      const LinkId link = slot / vcs_;
      s.link = link;
      s.vc = static_cast<int>(slot % vcs_);
      s.from = link / (2 * shape_.dim());
      s.dim = static_cast<int>((link / 2) % shape_.dim());
      s.dir = (link & 1) != 0 ? +1 : -1;
      s.first_window = fw;
      self->src_first_window_[static_cast<std::size_t>(slot)] = -1;
      self->active_.push_back(slot);
    }
    const std::int64_t len =
        std::min<std::int64_t>(windows_done_ - s.first_window, cap);
    const std::int64_t w0 = windows_done_ - len;
    const auto row = static_cast<std::size_t>(slot);
    s.ring.assign(static_cast<std::size_t>(len), ChannelSample{});
    std::int64_t p = w0 % cap;
    for (std::int64_t i = 0; i < len; ++i) {
      s.ring[static_cast<std::size_t>(i)] =
          ring_arena_[static_cast<std::size_t>(p)][row];
      if (++p == cap) p = 0;
    }
    s.head = 0;
    s.first_window = w0;
    // Totals sync at closes in hook-fed mode; the synced counter value is
    // exactly that.
    s.total = flit_synced_[static_cast<std::size_t>(slot)];
  }
  self->arena_synced_windows_ = windows_done_;
}

bool Telemetry::channel_series(LinkId link, int vc, std::int64_t* first_window,
                               std::vector<ChannelSample>* out) const {
  materialize_rings();
  const std::int64_t slot = link * vcs_ + vc;
  if (slot < 0 || slot >= static_cast<std::int64_t>(channels_.size()) ||
      !ch_live_[static_cast<std::size_t>(slot)]) {
    return false;
  }
  const Series& s = channels_[static_cast<std::size_t>(slot)];
  if (first_window != nullptr) *first_window = s.first_window;
  if (out != nullptr) {
    out->clear();
    out->reserve(s.ring.size());
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
      out->push_back(s.ring[(s.head + i) % s.ring.size()]);
    }
  }
  return true;
}

// --- Stall report rendering ------------------------------------------------

namespace {

std::string point_string(const MeshShape& shape, NodeId id) {
  const Point p = shape.point(id);
  std::ostringstream os;
  os << "(";
  for (int j = 0; j < shape.dim(); ++j) {
    if (j > 0) os << ",";
    os << p[j];
  }
  os << ")";
  return os.str();
}

}  // namespace

std::string StallReport::render(const MeshShape& shape) const {
  std::ostringstream os;
  os << "== lambmesh stall watchdog: no flit advanced for " << stalled_cycles
     << " cycles at cycle " << cycle << " ==\n";
  if (has_cycle()) {
    os << "wait-for CYCLE (deadlock): msg ";
    for (const std::int64_t m : cycle_msgs) os << m << " -> ";
    os << cycle_msgs.front() << "\n";
  } else {
    os << "no wait-for cycle found (stall, not a deadlock)\n";
  }
  // Blocked-message lists grouped by the node the head is stuck at.
  std::vector<const WaitEdge*> sorted;
  sorted.reserve(edges.size());
  for (const WaitEdge& e : edges) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const WaitEdge* a, const WaitEdge* b) {
                     return a->at < b->at;
                   });
  NodeId last = -1;
  for (const WaitEdge* e : sorted) {
    if (e->at != last) {
      os << "blocked at node " << point_string(shape, e->at) << ":\n";
      last = e->at;
    }
    os << "  msg " << e->waiter << " waits on link " << e->link << " vc "
       << e->vc << " (" << e->reason << ")";
    if (e->holder >= 0) os << " held by msg " << e->holder;
    if (e->on_cycle) os << "  [CYCLE]";
    os << "\n";
  }
  if (waiting_injection > 0) {
    os << "messages awaiting injection or dependency: " << waiting_injection
       << "\n";
  }
  return os.str();
}

// --- Export ----------------------------------------------------------------

bool Telemetry::write_csv(const std::string& path, std::int64_t cycles) const {
  materialize_rings();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# lambmesh telemetry v1\n");
  std::fprintf(out, "meta,shape,%s\n", shape_.to_string().c_str());
  std::fprintf(out, "meta,dims,");
  for (int j = 0; j < shape_.dim(); ++j) {
    std::fprintf(out, "%s%d", j > 0 ? "x" : "", shape_.width(j));
  }
  std::fprintf(out, "\nmeta,vcs,%d\n", vcs_);
  std::fprintf(out, "meta,sample_every,%lld\n",
               static_cast<long long>(config_.sample_every));
  std::fprintf(out, "meta,ring_windows,%d\n", config_.ring_windows);
  std::fprintf(out, "meta,cycles,%lld\n", static_cast<long long>(cycles));
  std::fprintf(out, "meta,windows,%lld\n",
               static_cast<long long>(windows_done_));
  std::fprintf(out, "meta,events_dropped,%lld\n",
               static_cast<long long>(events_dropped_));
  std::fprintf(out, "meta,deadlock,%d\n",
               stall_report_ != nullptr && stall_report_->has_cycle() ? 1 : 0);

  // channel_total,link,node,dim,dir,vc,total — exact whole-run flit
  // counts (the windowed rows below may have been ring-truncated).
  for (const std::int64_t slot : active_) {
    const Series& s = channels_[static_cast<std::size_t>(slot)];
    std::fprintf(out, "channel_total,%lld,%lld,%d,%+d,%d,%lld\n",
                 static_cast<long long>(s.link),
                 static_cast<long long>(s.from), s.dim, s.dir, s.vc,
                 static_cast<long long>(s.total));
  }
  // channel,link,node,dim,dir,vc,window,flits,occupancy
  for (const std::int64_t slot : active_) {
    const Series& s = channels_[static_cast<std::size_t>(slot)];
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
      const ChannelSample& smp = s.ring[(s.head + i) % s.ring.size()];
      std::fprintf(out, "channel,%lld,%lld,%d,%+d,%d,%lld,%u,%u\n",
                   static_cast<long long>(s.link),
                   static_cast<long long>(s.from), s.dim, s.dir, s.vc,
                   static_cast<long long>(s.first_window +
                                          static_cast<std::int64_t>(i)),
                   smp.flits, smp.occupancy);
    }
  }
  // node,id,window,injected,ejected
  for (const NodeId node : active_nodes_) {
    const NodeSeries& s = nodes_[static_cast<std::size_t>(node)];
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
      const auto& smp = s.ring[(s.head + i) % s.ring.size()];
      std::fprintf(out, "node,%lld,%lld,%u,%u\n",
                   static_cast<long long>(s.node),
                   static_cast<long long>(s.first_window +
                                          static_cast<std::int64_t>(i)),
                   smp.first, smp.second);
    }
  }
  // latency,msg,inject,start,finish,queue,transit,stall
  for (const LatencyRecord& r : latencies_) {
    std::fprintf(out, "latency,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
                 static_cast<long long>(r.msg),
                 static_cast<long long>(r.inject),
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.finish),
                 static_cast<long long>(r.queue_cycles()),
                 static_cast<long long>(r.transit_cycles()),
                 static_cast<long long>(r.stall_cycles()));
  }
  // event,msg,cycle,kind,link,vc
  for (const LifecycleEvent& e : events_) {
    std::fprintf(out, "event,%lld,%lld,%s,%lld,%d\n",
                 static_cast<long long>(e.msg),
                 static_cast<long long>(e.cycle), msg_event_name(e.kind),
                 static_cast<long long>(e.slot < 0 ? -1 : e.slot / vcs_),
                 e.slot < 0 ? -1 : static_cast<int>(e.slot % vcs_));
  }
  // route_load,node,count
  for (std::size_t id = 0; id < route_load_.size(); ++id) {
    if (route_load_[id] == 0) continue;
    std::fprintf(out, "route_load,%zu,%d\n", id, route_load_[id]);
  }
  if (stall_report_ != nullptr) {
    std::fprintf(out, "meta,stall_cycle,%lld\n",
                 static_cast<long long>(stall_report_->cycle));
    for (const WaitEdge& e : stall_report_->edges) {
      std::fprintf(out, "stall_edge,%lld,%lld,%lld,%d,%lld,%s,%d\n",
                   static_cast<long long>(e.waiter),
                   static_cast<long long>(e.holder),
                   static_cast<long long>(e.link), e.vc,
                   static_cast<long long>(e.at), e.reason,
                   e.on_cycle ? 1 : 0);
    }
  }
  return support::close_written(out);
}

bool Telemetry::write(std::int64_t cycles) const {
  // Process-wide count of dumping runs.
  static std::atomic<std::int64_t> next_run{0};
  const std::int64_t run = next_run.fetch_add(1, std::memory_order_relaxed);
  const std::optional<DumpDest> dest =
      parse_dump_dest(config_.dump, kTelemetryDumps);
  if (!dest) return false;
  const std::string path = telemetry_run_path(dest->path, run);
  if (write_csv(path, cycles)) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

// --- Process-level plumbing ------------------------------------------------

TelemetryConfig default_telemetry() { return mutable_default(); }

void telemetry_init(const std::string& dest) {
  TelemetryConfig& config = mutable_default();
  config.enabled = true;
  config.dump = dest;
}

std::string telemetry_run_path(const std::string& dest, std::int64_t run) {
  return run == 0 ? dest : dest + "." + std::to_string(run);
}

}  // namespace lamb::obs
