#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "obs/export.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace lamb::obs {

namespace {

std::uint16_t sat16(std::int64_t v) {
  return static_cast<std::uint16_t>(std::clamp<std::int64_t>(v, 0, 0xFFFF));
}

std::uint8_t sat8(std::int32_t v) {
  return static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 0xFF));
}

// At least one cycle per window and one window per ring.
TelemetryConfig normalized(TelemetryConfig config) {
  config.sample_every = std::max<std::int64_t>(1, config.sample_every);
  config.ring_windows = std::max(1, config.ring_windows);
  return config;
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

// --- Window-major series ---------------------------------------------------

template <class Sample>
std::vector<typename Telemetry::Ring<Sample>::Record>&
Telemetry::Ring<Sample>::open(std::int64_t base, std::int64_t n) {
  const auto cap = static_cast<std::int64_t>(windows.size());
  const std::int64_t done = base + n;
  for (std::int64_t w = std::max<std::int64_t>(0, base - cap);
       w < std::min(base, done - cap); ++w) {
    std::vector<Record>& evicted = at(w);
    for (const Record& r : evicted) carry[r.slot] = r.sample;
    evicted.clear();
  }
  return at(std::max(base, done - cap));
}

template <class Sample>
std::size_t Telemetry::Ring<Sample>::collect() {
  std::uint32_t* out = touched.data();
  std::uint8_t* mark = marks.data();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b] == 0) continue;
    blocks[b] = 0;
    const std::size_t end = std::min(marks.size(), (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < end; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, mark + i, sizeof word);
      if (word == 0) continue;
      std::memset(mark + i, 0, sizeof word);
      // Each mark is 0 or 1, so a marked slot is one set bit; take them
      // in memory order.
      while (word != 0) {
        if constexpr (std::endian::native == std::endian::little) {
          *out++ = static_cast<std::uint32_t>(
              i + static_cast<std::size_t>(std::countr_zero(word)) / 8);
          word &= word - 1;
        } else {
          const int top = std::countl_zero(word);
          *out++ = static_cast<std::uint32_t>(
              i + static_cast<std::size_t>(top) / 8);
          word &= ~(std::uint64_t{1} << (63 - top));
        }
      }
    }
  }
  return static_cast<std::size_t>(out - touched.data());
}

template <class Sample>
template <class Count>
void Telemetry::Ring<Sample>::close(std::int64_t base, std::int64_t n,
                                    Count&& count) {
  std::vector<Record>& list = open(base, n);
  const bool base_survives = n <= static_cast<std::int64_t>(windows.size());
  const std::size_t k = collect();
  list.reserve(list.size() + k);
  const std::uint32_t* slot = touched.data();
  for (std::size_t i = 0; i < k; ++i) {
    Sample counted;
    if (!count(slot[i], &counted)) continue;
    list.push_back(
        Record{slot[i], base_survives ? counted : idle_after(counted)});
  }
}

Telemetry::Telemetry(const MeshShape& shape, int vcs_per_link,
                     TelemetryConfig config, const std::int32_t* channel_flits,
                     const std::int32_t* occupancy)
    : shape_(shape),
      vcs_(std::max(1, vcs_per_link)),
      config_(normalized(std::move(config))),
      channel_flits_(channel_flits),
      occupancy_(occupancy),
      // link_id() indexes the dense (node, dim, dir) space, which is larger
      // than num_links() on non-wrapping meshes (boundary ids stay unused).
      channel_synced_(
          static_cast<std::size_t>(shape_.size() * shape_.dim() * 2 * vcs_)),
      channels_(channel_synced_.size(), config_.ring_windows),
      node_flits_(static_cast<std::size_t>(shape_.size())),
      node_synced_(node_flits_.size()),
      nodes_(node_flits_.size(), config_.ring_windows) {}

void Telemetry::on_delivered(const LatencyRecord& record) {
  latencies_.push_back(record);
}

void Telemetry::on_event_slow(MsgEvent kind, std::int64_t msg,
                              std::int64_t cycle, std::int64_t slot) {
  if (!config_.lifecycle) return;
  if (events_.size() >= kMaxEvents) {
    ++events_dropped_;
    return;
  }
  // Saturated runs record hundreds of thousands of acquire/release
  // events. Reserving the whole cap outright is one lazy mmap — pages
  // fault only as events land — where doubling from small would copy and
  // re-fault megabytes at every growth step.
  events_.reserve(kMaxEvents);
  events_headroom_ = kMaxEvents;
  events_.push_back(LifecycleEvent{static_cast<std::int32_t>(msg),
                                   static_cast<std::int32_t>(cycle),
                                   static_cast<std::int32_t>(slot), kind});
}

void Telemetry::set_stall_report(StallReport report) {
  stall_report_ = std::make_unique<StallReport>(std::move(report));
}

void Telemetry::set_route_load(std::vector<std::int32_t> counts) {
  route_load_ = std::move(counts);
}

void Telemetry::end_window(std::int64_t cycle, bool final) {
  std::int64_t target = cycle / config_.sample_every;
  if (final && cycle % config_.sample_every != 0) ++target;
  if (target <= windows_done_) return;
  const std::int64_t base = windows_done_;
  const std::int64_t n = target - base;
  // Only the slots and nodes touched since the last close. A slot goes
  // live at the first close after its first count, which is the window
  // that count belongs to; a zero synced value means no earlier close saw
  // a count.
  const std::int32_t* flits = channel_flits_;
  const std::int32_t* occupancy = occupancy_;
  std::int32_t* synced = channel_synced_.data();
  std::int64_t* first = channels_.first.data();
  channels_.close(base, n, [&](std::uint32_t slot, ChannelSample* sample) {
    const std::int32_t total = flits[slot];
    if (total == 0) return false;
    const std::int32_t was = synced[slot];
    if (was == 0) first[slot] = base;
    synced[slot] = total;
    *sample = ChannelSample{sat16(total - was), sat8(occupancy[slot])};
    return true;
  });
  nodes_.close(base, n, [&](std::uint32_t node, NodeSample* sample) {
    const NodeFlits total = node_flits_[node];
    if ((total.injected | total.ejected) == 0) return false;
    const NodeFlits was = node_synced_[node];
    if ((was.injected | was.ejected) == 0) nodes_.first[node] = base;
    node_synced_[node] = total;
    *sample = NodeSample{sat16(total.injected - was.injected),
                         sat16(total.ejected - was.ejected)};
    return true;
  });
  windows_done_ = target;
}

std::int64_t Telemetry::total_channel_flits() const {
  std::int64_t total = 0;
  for (std::size_t slot = 0; slot < channel_synced_.size(); ++slot) {
    total += channel_flits_[slot];
  }
  return total;
}

bool Telemetry::channel_series(LinkId link, int vc, std::int64_t* first_window,
                               std::vector<ChannelSample>* out) const {
  const std::int64_t slot = link * vcs_ + vc;
  if (slot < 0 || slot >= static_cast<std::int64_t>(channel_synced_.size()) ||
      channels_.first[static_cast<std::size_t>(slot)] < 0) {
    return false;
  }
  const auto row = static_cast<std::size_t>(slot);
  const std::int64_t from = channels_.retained_from(row, windows_done_);
  if (first_window != nullptr) *first_window = from;
  if (out != nullptr) {
    out->clear();
    channels_.series(row, from, windows_done_,
                     [&](std::int64_t, ChannelSample smp) {
                       out->push_back(smp);
                     });
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

  // Channel rows in slot order; (link, vc) and the link's source node,
  // dimension and direction decode from the slot
  // (link_id = (from * dim + j) * 2 + (Pos ? 1 : 0)).
  const auto channel_prefix = [&](const char* kind, std::size_t slot) {
    const LinkId link = static_cast<LinkId>(slot) / vcs_;
    std::fprintf(out, "%s,%lld,%lld,%d,%+d,%d,", kind,
                 static_cast<long long>(link),
                 static_cast<long long>(link / (2 * shape_.dim())),
                 static_cast<int>((link / 2) % shape_.dim()),
                 (link & 1) != 0 ? +1 : -1,
                 static_cast<int>(static_cast<LinkId>(slot) % vcs_));
  };
  // channel_total,link,node,dim,dir,vc,total — exact whole-run flit
  // counts (the windowed rows below may have been ring-truncated).
  for (std::size_t slot = 0; slot < channel_synced_.size(); ++slot) {
    if (channels_.first[slot] < 0) continue;
    channel_prefix("channel_total", slot);
    std::fprintf(out, "%lld\n", static_cast<long long>(channel_synced_[slot]));
  }
  // channel,link,node,dim,dir,vc,window,flits,occupancy
  for (std::size_t slot = 0; slot < channel_synced_.size(); ++slot) {
    if (channels_.first[slot] < 0) continue;
    channels_.series(slot, channels_.retained_from(slot, windows_done_),
                     windows_done_, [&](std::int64_t w, ChannelSample smp) {
                       channel_prefix("channel", slot);
                       std::fprintf(out, "%lld,%u,%u\n",
                                    static_cast<long long>(w), smp.flits,
                                    smp.occupancy);
                     });
  }
  // node,id,window,injected,ejected — nodes in discovery order: the
  // window of their first endpoint flit, then id.
  std::vector<NodeId> nodes;
  for (std::size_t node = 0; node < node_flits_.size(); ++node) {
    if (nodes_.first[node] >= 0) nodes.push_back(static_cast<NodeId>(node));
  }
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return nodes_.first[static_cast<std::size_t>(a)] <
           nodes_.first[static_cast<std::size_t>(b)];
  });
  for (const NodeId node : nodes) {
    const auto row = static_cast<std::size_t>(node);
    nodes_.series(row, nodes_.retained_from(row, windows_done_),
                  windows_done_, [&](std::int64_t w, NodeSample smp) {
                    std::fprintf(out, "node,%lld,%lld,%u,%u\n",
                                 static_cast<long long>(node),
                                 static_cast<long long>(w), smp.injected,
                                 smp.ejected);
                  });
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
