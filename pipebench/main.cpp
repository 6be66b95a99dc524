// pipebench: one benchmark of the whole lamb pipeline, measured from
// outside through the public calls of serve, manager and wormhole.
//
//   fault report -> begin_reconfigure -> incremental lamb solve ->
//   publish (table capture + flood adopt) -> route vend -> flit-level
//   delivery of the vended routes
//
// A run is a loop of identical rounds. Each round restores one of the
// workload's base fault sets (untimed), re-anchors the timeline with an
// untimed fault event so every timed reconfigure is incremental, times
// the host reference kernel, then runs a sim batch and the workload's
// vend batches and fault events. Every host-time sample is scaled by its
// round's kernel factor, and percentiles are taken over the pooled,
// scaled samples. Round r replays slot r mod S, so later cycles repeat
// the first one exactly; the outcome digest of every repeat, and of a
// replay at solver pool width 1, must match.
//
// Usage: pipebench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> [--trace-out <path>] [--sweep-load 1]
// The last line of stdout is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with 1).
// --sweep-load 1 instead prints the sim batch's offered-load sweep.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_support.hpp"
#include "manager/machine_manager.hpp"
#include "serve/route_service.hpp"
#include "support/parallel.hpp"
#include "tracer.hpp"
#include "validator.hpp"
#include "wormhole/network.hpp"

namespace pipebench {
namespace {

using lamb::Dir;
using lamb::NodeId;
namespace serve = lamb::serve;
namespace wormhole = lamb::wormhole;

constexpr int kPoolWidth = 2;     // solver pool width (at most nproc)
constexpr int kRounds = 2;        // k, the paper's configuration
constexpr int kSetupReps = 3;     // setup_s is the median of these
constexpr int kReplaySlots = 8;   // slots replayed at both pool widths
constexpr int kMissProbes = 2;    // traced: miss probes after a publish
constexpr int kTracedSlots = 32;  // traced rounds (trace mode)
constexpr int kSweepSlots = 64;   // slots per offered load (--sweep-load)
// Largest mean rise of the source-queue wait from the first to the last
// quarter of a sim batch, in cycles, before the offered load counts as
// past saturation. On deliver (--sweep-load) it is about 0.4 at the
// chosen gap of 0.4 cycles, 0.8 at 0.35, 1.6 at 0.3 and 3.5 at 0.25.
constexpr double kQueueGrowthLimit = 1.5;

// The proportions of one round.
struct Mix {
  const char* name;
  int dim;
  lamb::Coord width;
  double fault_frac;   // initial random node faults per base
  int slots;           // base fault sets, one per slot of a cycle
  int pool;            // vend endpoint pool per base (0: all survivors)
  bool warm;           // warm the pool's floods after anchor and events
  int events;          // timed fault events per round
  int batch_vends;     // fresh vends before each event
  int stale_vends;     // vends while the reconfigure window is open
  int burst_vends;     // vends after publish; the first is fault_to_fresh's
  int sim_messages;    // vended and simulated per round
  int message_flits;
  double inject_gap;   // cycles between injections
};

const Mix kMixes[] = {
    {"vend_hot", 3, 16, 0.04, 256, 64, true, 2, 400, 1, 1, 64, 8, 1.0},
    {"fault_churn", 3, 16, 0.04, 256, 0, false, 8, 4, 4, 8, 64, 8, 1.0},
    {"deliver", 2, 32, 0.05, 768, 256, true, 1, 0, 1, 1, 1024, 8, 0.4},
};

// Traced rounds take turns by slot. Even slots sample publish() and the
// tracing overhead; odd slots are probe rounds, which time the capture
// just before each publish() and probe route misses on its copy. A probe
// warms what the next timed call touches, so probe rounds sample
// neither publish() nor the overhead.
bool probe_round(int slot) { return slot % 2 == 1; }

// splitmix64: the bench generates its inputs itself.
struct Gen {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct Report {
  bool link = false;
  NodeId node = 0;
  int dim = 0;
  Dir dir = Dir::Pos;
};

// The inputs of one slot; slot s restores base fault set s.
struct SlotInput {
  std::vector<Report> anchor;
  std::vector<std::vector<Report>> events;
  std::vector<std::uint64_t> words;  // two per vend, in order
  // Traced rounds only: pairs for the miss probes, kept apart so that
  // probing never shifts the vend stream.
  std::vector<std::uint64_t> probe_words;
};

// Everything setup builds; one per run (setup is repeated and the last
// build is kept).
struct State {
  explicit State(const Mix& mix)
      : shape(lamb::MeshShape::cube(mix.dim, mix.width)) {}
  lamb::MeshShape shape;
  std::vector<lamb::manager::Checkpoint> bases;
  std::vector<std::vector<NodeId>> pools;  // per base; empty: survivors
  std::vector<SlotInput> slots;
  std::unique_ptr<lamb::manager::MachineManager> manager;
  std::unique_ptr<serve::RouteService> service;
  std::int64_t now = 0;  // admission tick, one per submit
};

// Peak resident set of this process, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

lamb::LambOptions lamb_options() {
  lamb::LambOptions options;
  options.rounds = kRounds;
  return options;
}

// Reports for one fault event: 1-2 node or link faults on nodes that are
// good in the base and untouched so far in the slot.
std::vector<Report> make_event(const lamb::MeshShape& shape,
                               std::vector<std::uint8_t>* used, Gen& gen,
                               int count) {
  std::vector<Report> out;
  while (static_cast<int>(out.size()) < count) {
    Report r;
    r.node = static_cast<NodeId>(gen.below(
        static_cast<std::uint64_t>(shape.size())));
    r.link = gen.below(10) < 3;
    if ((*used)[static_cast<std::size_t>(r.node)] != 0) continue;
    if (r.link) {
      r.dim = static_cast<int>(gen.below(static_cast<std::uint64_t>(
          shape.dim())));
      r.dir = gen.below(2) == 0 ? Dir::Pos : Dir::Neg;
      lamb::Point p = shape.point(r.node);
      const lamb::Coord next = p[r.dim] + (r.dir == Dir::Pos ? 1 : -1);
      if (next < 0 || next >= shape.width(r.dim)) continue;
      p[r.dim] = next;
      const NodeId other = shape.index(p);
      if ((*used)[static_cast<std::size_t>(other)] != 0) continue;
      (*used)[static_cast<std::size_t>(other)] = 1;
    }
    (*used)[static_cast<std::size_t>(r.node)] = 1;
    out.push_back(r);
  }
  return out;
}

int vends_per_round(const Mix& mix) {
  return mix.sim_messages +
         mix.events * (mix.batch_vends + mix.stale_vends + mix.burst_vends);
}

std::unique_ptr<State> build_state(const Mix& mix, std::uint64_t seed) {
  auto state = std::make_unique<State>(mix);
  const lamb::MeshShape& shape = state->shape;
  Gen gen{seed * 0x100000001b3ULL + 0x51ed};
  const auto faults = static_cast<std::int64_t>(
      static_cast<double>(shape.size()) * mix.fault_frac);
  std::vector<std::vector<std::uint8_t>> base_faulty;
  for (int b = 0; b < mix.slots; ++b) {
    lamb::manager::MachineManager m(shape, lamb_options(), kRounds);
    std::vector<std::uint8_t> faulty(static_cast<std::size_t>(shape.size()),
                                     0);
    for (std::int64_t placed = 0; placed < faults;) {
      const NodeId id = static_cast<NodeId>(
          gen.below(static_cast<std::uint64_t>(shape.size())));
      if (faulty[static_cast<std::size_t>(id)] != 0) continue;
      faulty[static_cast<std::size_t>(id)] = 1;
      m.report_node_fault(id);
      ++placed;
    }
    m.reconfigure();
    state->bases.push_back(m.checkpoint());
    std::vector<NodeId> pool;
    if (mix.pool > 0) {
      std::vector<NodeId> survivors = m.survivors();
      for (int i = 0; i < mix.pool && !survivors.empty(); ++i) {
        const auto j = static_cast<std::size_t>(gen.below(survivors.size()));
        pool.push_back(survivors[j]);
        survivors[j] = survivors.back();
        survivors.pop_back();
      }
      std::sort(pool.begin(), pool.end());
    }
    state->pools.push_back(std::move(pool));
    base_faulty.push_back(std::move(faulty));
  }
  for (int s = 0; s < mix.slots; ++s) {
    SlotInput slot;
    std::vector<std::uint8_t> used = base_faulty[static_cast<std::size_t>(s)];
    slot.anchor = make_event(shape, &used, gen, 1);
    for (int e = 0; e < mix.events; ++e) {
      slot.events.push_back(
          make_event(shape, &used, gen, 1 + static_cast<int>(gen.below(2))));
    }
    slot.words.resize(2 * static_cast<std::size_t>(vends_per_round(mix)));
    for (auto& w : slot.words) w = gen.next();
    slot.probe_words.resize(2 * static_cast<std::size_t>(kMissProbes) *
                            static_cast<std::size_t>(mix.events));
    for (auto& w : slot.probe_words) w = gen.next();
    state->slots.push_back(std::move(slot));
  }
  state->manager = std::make_unique<lamb::manager::MachineManager>(
      shape, lamb_options(), kRounds);
  state->manager->restore(state->bases[0]);
  // Wide enough that every vend of an open window (one tick each) stays
  // on the stale rung.
  serve::ServiceOptions options;
  options.staleness_cap = 64;
  state->service =
      std::make_unique<serve::RouteService>(*state->manager, options, 0);
  return state;
}

// Builds the forward and backward flood of every endpoint in `nodes`:
// each is routed once as a source and once as a destination.
void warm_floods(const serve::RouteTable& table,
                 const std::vector<NodeId>& nodes) {
  lamb::Rng rng(1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    table.route(nodes[i], nodes[(i + 1) % nodes.size()], rng);
  }
}

// --- Per-round records ------------------------------------------------

// Host-time samples of one round, raw microseconds.
struct HostRecord {
  double kernel_us = 0.0;
  std::vector<double> vend_us;  // served vends, first-fresh probes excluded
  std::vector<double> ftf_us;   // fault_to_fresh
  double sim_run_us = 0.0;
  std::int64_t sim_flits_moved = 0;
  double work_us = 0.0;         // every timed program call (no probes)
};

// Exact outcomes of one round (identical on every repeat of its slot).
struct ExactRecord {
  std::uint64_t digest = 0;
  std::vector<std::int64_t> lambs;  // per published epoch
  std::vector<double> latencies;    // sim latency, cycles
  std::int64_t sim_cycles = 0;
  std::int64_t sim_flits_delivered = 0;
  double queue_cycles_sum = 0.0;
  double stall_cycles_sum = 0.0;
  std::int64_t sim_delivered = 0;
  double link_load_max = 0.0;
  double hops_sum = 0.0;
  double turns_sum = 0.0;
  std::int64_t routes = 0;
  std::int64_t floods_retained = 0;
  std::int64_t floods_dropped = 0;

  // Folds another round in (the digest is per round and not folded).
  void add(const ExactRecord& o) {
    lambs.insert(lambs.end(), o.lambs.begin(), o.lambs.end());
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    sim_cycles += o.sim_cycles;
    sim_flits_delivered += o.sim_flits_delivered;
    queue_cycles_sum += o.queue_cycles_sum;
    stall_cycles_sum += o.stall_cycles_sum;
    sim_delivered += o.sim_delivered;
    link_load_max = std::max(link_load_max, o.link_load_max);
    hops_sum += o.hops_sum;
    turns_sum += o.turns_sum;
    routes += o.routes;
    floods_retained += o.floods_retained;
    floods_dropped += o.floods_dropped;
  }
};

// Per-layer samples, from traced rounds only.
struct LayerRecord {
  std::vector<double> route_hit_us, route_miss_us, ladder_us;
  std::int64_t submits = 0, flood_misses = 0, stale = 0;
  std::vector<double> capture_us, publish_us, report_us, reconfigure_us;
  std::vector<double> partition_us, matrices_us, cover_us;
  std::int64_t events = 0, incremental = 0;
  double blocks_reused = 0.0, lambs_new = 0.0;
  std::vector<double> wsubmit_us;
  double run_us = 0.0;
  std::int64_t run_flits = 0;
};

// Source-queue wait through sim batches, from the simulator's
// per-message latency records: the mean wait of the first and of the
// last quarter of each batch's messages, in injection order. Below
// saturation the two agree; a backlog that builds up through the batch
// makes the last quarter wait longer.
struct QueueCheck {
  std::int64_t batches = 0;
  double first_sum = 0.0;   // per-batch first-quarter means, summed
  double last_sum = 0.0;    // per-batch last-quarter means, summed

  // Mean rise of the wait from the first to the last quarter, cycles.
  double growth() const {
    return batches > 0 ? (last_sum - first_sum) / static_cast<double>(batches)
                       : 0.0;
  }

  // `records` of a batch of `messages` messages with ids 0..messages-1
  // (an undelivered message has no record and counts as no wait).
  void add(const std::vector<lamb::obs::LatencyRecord>& records,
           std::size_t messages) {
    std::vector<double> wait(messages, 0.0);
    for (const lamb::obs::LatencyRecord& r : records) {
      if (r.msg >= 0 && static_cast<std::size_t>(r.msg) < messages) {
        wait[static_cast<std::size_t>(r.msg)] =
            static_cast<double>(r.queue_cycles());
      }
    }
    const std::size_t q = wait.size() / 4;
    if (q == 0) return;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      first += wait[i];
      last += wait[wait.size() - q + i];
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    ++batches;
    first_sum += first;
    last_sum += last;
  }
};

struct Failures {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> kinds;
  void fail(const std::string& kind) {
    ++failed;
    ++kinds[kind];
  }
};

// --- The round --------------------------------------------------------

class Runner {
 public:
  Runner(const Mix& mix, State& state, Tracer& tracer, Failures& failures)
      : mix_(mix),
        state_(state),
        tracer_(tracer),
        failures_(failures),
        validator_(lamb::ascending_rounds(mix.dim, kRounds)),
        kernel_(mix.dim, mix.width) {}

  // Runs one round of `slot`. `layer` is non-null in traced rounds.
  void round(int slot_index, HostRecord* host, ExactRecord* exact,
             LayerRecord* layer);

  // When set, sim batches also record per-message queue waits (the
  // simulator's telemetry costs host time, so untimed rounds only).
  void set_queue_check(QueueCheck* check) { queue_check_ = check; }

 private:
  struct Vended {
    double us = 0.0;
    int epoch = 0;
  };
  // A served vend awaiting validation, with the table that served it.
  struct Pending {
    std::shared_ptr<const serve::RouteTable> table;
    serve::RouteResponse response;
  };

  // One submit of the next pair; nullopt (and a failure) when unserved.
  // The route is validated and digested by the next settle().
  std::optional<Vended> vend(serve::ServeStatus expect);
  // Validates and digests every pending vend, in order, in one span.
  void settle();
  void refresh_pool();
  void warm();
  // One fault event. A timed event records fault_to_fresh: the timed
  // report, begin_reconfigure, reconfigure, publish and first fresh vend.
  void fault_event(const std::vector<Report>& reports, bool timed,
                   std::int64_t event_id);
  // Times route misses on a probe's copy of the live table, after the
  // event's timed calls.
  void probe_misses(const serve::RouteTable& copy, std::int64_t event_id);
  void sim_batch();
  void mix_epoch(const lamb::manager::EpochReport& report);
  std::uint64_t word() {
    return slot_->words[word_++ % slot_->words.size()];
  }

  const Mix& mix_;
  State& state_;
  Tracer& tracer_;
  Failures& failures_;
  RouteValidator validator_;
  RefKernel kernel_;

  // Per-round context.
  int slot_index_ = 0;
  const SlotInput* slot_ = nullptr;
  std::size_t word_ = 0;
  std::size_t probe_word_ = 0;
  std::vector<NodeId> pool_live_;
  HostRecord* host_ = nullptr;
  ExactRecord* exact_ = nullptr;
  LayerRecord* layer_ = nullptr;
  Fnv digest_;
  std::vector<Pending> pending_;
  std::int64_t request_ = 0;
  QueueCheck* queue_check_ = nullptr;
};

void Runner::refresh_pool() {
  const auto table = state_.service->table();
  const auto& pool = state_.pools[static_cast<std::size_t>(slot_index_)];
  pool_live_.clear();
  if (pool.empty()) {
    pool_live_ = table->survivors();
    return;
  }
  for (const NodeId id : pool) {
    if (table->covers(id)) pool_live_.push_back(id);
  }
}

void Runner::warm() {
  Timed span(tracer_, "bench.warm", 0);
  warm_floods(*state_.service->table(), pool_live_);
}

std::optional<Runner::Vended> Runner::vend(serve::ServeStatus expect) {
  const std::uint64_t a = word();
  const std::uint64_t b = word();
  const std::size_t n = pool_live_.size();
  serve::RouteRequest request;
  request.client_id = static_cast<std::uint64_t>(++request_);
  request.seq = request_;
  request.src = pool_live_[a % n];
  std::size_t j = b % n;
  if (pool_live_[j] == request.src) j = (j + 1) % n;
  request.dst = pool_live_[j];
  request.rng_seed = a ^ (b << 1);
  const std::int64_t now = ++state_.now;
  request.submit_tick = now;

  std::shared_ptr<const serve::RouteTable> table = state_.service->table();
  const std::int64_t floods_before =
      layer_ != nullptr ? table->cached_floods() : 0;
  Timed timed(tracer_, "serve.submit", request_);
  std::optional<serve::RouteResponse> response =
      state_.service->submit(request, now);
  const double us = timed.stop();
  host_->work_us += us;
  ++failures_.attempted;
  if (!response || !serve::served(response->status) || !response->route) {
    failures_.fail(std::string("vend_") +
                   (response ? serve::to_string(response->status) : "queued"));
    return std::nullopt;
  }
  if (response->status != expect) failures_.fail("vend_unexpected_rung");
  if (response->status == serve::ServeStatus::kFallback) {
    table = state_.service->last_certified();
  }
  const Vended out{us, response->epoch};

  if (layer_ != nullptr) {
    ++layer_->submits;
    if (response->status == serve::ServeStatus::kStale) ++layer_->stale;
    const std::int64_t growth = table->cached_floods() - floods_before;
    layer_->flood_misses += growth;
    // The submit left both floods cached, so probing the same pair
    // times the route on its hit path; on a submit that hit too, the
    // difference is the ladder around the route.
    lamb::Rng rng(request.rng_seed);
    Timed probe(tracer_, "serve.route_probe_hit", request_);
    table->route(request.src, request.dst, rng);
    const double probe_us = probe.stop();
    layer_->route_hit_us.push_back(probe_us);
    if (growth == 0) layer_->ladder_us.push_back(us - probe_us);
  }
  pending_.push_back(Pending{std::move(table), std::move(*response)});
  return out;
}

void Runner::settle() {
  if (pending_.empty()) return;
  Timed check(tracer_, "bench.validate", 0);
  for (const Pending& p : pending_) {
    const wormhole::Route& route = *p.response.route;
    if (p.table->epoch() != p.response.epoch) {
      failures_.fail("vend_epoch_mismatch");
    } else {
      const std::string violation = validator_.check(p.table, route);
      if (!violation.empty()) failures_.fail("validator: " + violation);
    }
    digest_.mix(static_cast<std::uint64_t>(p.response.status));
    digest_.mix(static_cast<std::uint64_t>(p.response.epoch));
    digest_.mix(static_cast<std::uint64_t>(route.src));
    digest_.mix(static_cast<std::uint64_t>(route.dst));
    for (const wormhole::Hop& hop : route.hops) {
      digest_.mix(static_cast<std::uint64_t>(hop.dim) * 4 +
                  (hop.dir == Dir::Pos ? 2 : 0) +
                  static_cast<std::uint64_t>(hop.vc) * 16);
    }
    for (const NodeId u : route.intermediates) {
      digest_.mix(static_cast<std::uint64_t>(u));
    }
    exact_->hops_sum += static_cast<double>(route.length());
    exact_->turns_sum += route.turns();
    ++exact_->routes;
  }
  pending_.clear();
}

void Runner::mix_epoch(const lamb::manager::EpochReport& report) {
  digest_.mix(static_cast<std::uint64_t>(report.epoch));
  digest_.mix(static_cast<std::uint64_t>(report.solve_status));
  digest_.mix(static_cast<std::uint64_t>(report.lambs_total));
  digest_.mix(static_cast<std::uint64_t>(report.survivors));
  for (const NodeId id : state_.manager->lambs()) {
    digest_.mix(static_cast<std::uint64_t>(id));
  }
  exact_->lambs.push_back(report.lambs_total);
  ++failures_.attempted;
  if (report.solve_status != lamb::SolveStatus::kCertified) {
    failures_.fail("epoch_uncertified");
  }
}

void Runner::fault_event(const std::vector<Report>& reports, bool timed,
                         std::int64_t event_id) {
  lamb::manager::MachineManager& manager = *state_.manager;
  serve::RouteService& service = *state_.service;
  double ftf = 0.0;

  Timed t_report(tracer_, "manager.report", event_id);
  for (const Report& r : reports) {
    if (r.link) {
      manager.report_link_fault(state_.shape.point(r.node), r.dim, r.dir);
    } else {
      manager.report_node_fault(r.node);
    }
  }
  const double report_us = t_report.stop();
  ftf += report_us;

  Timed t_begin(tracer_, "serve.begin_reconfigure", event_id);
  service.begin_reconfigure(state_.now);
  ftf += t_begin.stop();

  if (timed) {
    for (int i = 0; i < mix_.stale_vends; ++i) {
      if (auto v = vend(serve::ServeStatus::kStale)) {
        host_->vend_us.push_back(v->us);
      }
    }
  }

  Timed t_reconf(tracer_, "manager.reconfigure", event_id);
  const lamb::manager::EpochReport report = manager.reconfigure();
  const double reconf_us = t_reconf.stop();
  ftf += reconf_us;
  serve::ServiceStats before;
  {
    Timed book(tracer_, "bench.bookkeeping", event_id);
    mix_epoch(report);
    before = service.stats();
  }

  // In a probe round the capture publish() is about to make is timed
  // first, as a probe; publish() then finds warm caches and is not
  // sampled. The probe's copy is never published.
  const bool probe = layer_ != nullptr && timed && probe_round(slot_index_);
  std::shared_ptr<const serve::RouteTable> copy;
  if (probe) {
    serve::RouteTable::BuildStats build;
    const auto prev = service.table();
    Timed t(tracer_, "serve.capture_probe", event_id);
    copy = serve::RouteTable::capture(manager, state_.now, prev.get(), &build);
    layer_->capture_us.push_back(t.stop());
  }
  Timed t_pub(tracer_, "serve.publish", event_id);
  service.publish(state_.now);
  const double publish_us = t_pub.stop();
  ftf += publish_us;
  {
    Timed book(tracer_, "bench.bookkeeping", event_id);
    const serve::ServiceStats after = service.stats();
    exact_->floods_retained += after.floods_retained - before.floods_retained;
    exact_->floods_dropped += after.floods_dropped - before.floods_dropped;
    refresh_pool();
  }

  if (!timed) {
    settle();
    return;
  }
  host_->work_us += ftf;

  if (layer_ != nullptr) {
    ++layer_->events;
    layer_->report_us.push_back(report_us);
    layer_->reconfigure_us.push_back(reconf_us);
    if (!probe) layer_->publish_us.push_back(publish_us);
    layer_->partition_us.push_back(report.partition_seconds * 1e6);
    layer_->matrices_us.push_back(report.matrices_seconds * 1e6);
    layer_->cover_us.push_back(report.cover_seconds * 1e6);
    layer_->blocks_reused += static_cast<double>(report.blocks_reused);
    layer_->lambs_new += static_cast<double>(report.lambs_new);
    if (report.incremental) ++layer_->incremental;
  }

  for (int i = 0; i < mix_.burst_vends; ++i) {
    auto v = vend(serve::ServeStatus::kFresh);
    if (!v) continue;
    if (i == 0) {
      if (v->epoch != report.epoch) {
        failures_.fail("first_vend_not_new_epoch");
      }
      host_->ftf_us.push_back(ftf + v->us);
    } else {
      host_->vend_us.push_back(v->us);
    }
  }
  settle();
  if (copy != nullptr) probe_misses(*copy, event_id);
}

void Runner::probe_misses(const serve::RouteTable& copy,
                          std::int64_t event_id) {
  // Fresh pairs on the copy, as the live table was right after its
  // adopt; only full misses (both floods built by the probe) are
  // route-miss samples.
  for (int i = 0; i < kMissProbes; ++i) {
    const std::uint64_t a = slot_->probe_words[probe_word_++];
    const std::uint64_t b = slot_->probe_words[probe_word_++];
    const NodeId src = pool_live_[a % pool_live_.size()];
    const NodeId dst = pool_live_[b % pool_live_.size()];
    if (src == dst) continue;
    const std::int64_t before_floods = copy.cached_floods();
    lamb::Rng rng(a);
    Timed probe(tracer_, "serve.route_probe_miss", event_id);
    copy.route(src, dst, rng);
    const double us = probe.stop();
    if (copy.cached_floods() - before_floods == 2) {
      layer_->route_miss_us.push_back(us);
    }
  }
}

void Runner::sim_batch() {
  Timed phase(tracer_, "phase.sim_batch", 0);
  const auto table = state_.service->table();
  for (int i = 0; i < mix_.sim_messages; ++i) {
    if (auto v = vend(serve::ServeStatus::kFresh)) {
      host_->vend_us.push_back(v->us);
    }
  }
  // Messages in request order, injected every inject_gap cycles.
  Timed t_build(tracer_, "bench.build_messages", 0);
  std::vector<wormhole::Message> messages;
  messages.reserve(pending_.size());
  for (const Pending& p : pending_) {
    wormhole::Message m;
    m.id = static_cast<std::int64_t>(messages.size());
    m.route = *p.response.route;
    m.length_flits = mix_.message_flits;
    m.inject_cycle = static_cast<std::int64_t>(
        static_cast<double>(m.id) * mix_.inject_gap);
    messages.push_back(std::move(m));
  }
  t_build.stop();
  settle();
  wormhole::SimConfig config;
  config.vcs_per_link = kRounds;
  config.engine = wormhole::Engine::kEvent;
  if (queue_check_ != nullptr) {
    config.telemetry.enabled = true;
    config.telemetry.lifecycle = false;
    config.telemetry.watchdog = false;
  }
  Timed t_construct(tracer_, "wormhole.construct", 0);
  wormhole::Network network(state_.shape, table->faults(), config);
  host_->work_us += t_construct.stop();
  for (wormhole::Message& m : messages) {
    Timed t(tracer_, "wormhole.submit", m.id);
    network.submit(std::move(m));
    const double us = t.stop();
    host_->work_us += us;
    if (layer_ != nullptr) layer_->wsubmit_us.push_back(us);
  }
  Timed t_run(tracer_, "wormhole.run", 0);
  const wormhole::SimResult result = network.run();
  const double run_us = t_run.stop();
  if (queue_check_ != nullptr) {
    queue_check_->add(network.telemetry()->latencies(),
                      static_cast<std::size_t>(result.total_messages));
  }
  host_->work_us += run_us;
  host_->sim_run_us += run_us;
  host_->sim_flits_moved += result.flits_moved;
  if (layer_ != nullptr) {
    layer_->run_us += run_us;
    layer_->run_flits += result.flits_moved;
  }

  Timed t_collect(tracer_, "bench.collect", 0);
  failures_.attempted += result.total_messages;
  if (result.deadlocked) failures_.fail("sim_deadlock");
  for (std::int64_t i = result.delivered; i < result.total_messages; ++i) {
    failures_.fail("sim_undelivered");
  }
  // Samples::quantile is nearest-rank, so rank i of n is quantile((i+.5)/n).
  const std::int64_t n = result.latency_samples.count();
  for (std::int64_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const double lat = result.latency_samples.quantile(q);
    exact_->latencies.push_back(lat);
    digest_.mix_double(lat);
  }
  exact_->sim_cycles += result.cycles;
  exact_->sim_delivered += result.delivered;
  exact_->sim_flits_delivered += result.delivered * mix_.message_flits;
  exact_->queue_cycles_sum += result.queue_cycles.sum();
  exact_->stall_cycles_sum += result.stall_cycles.sum();
  exact_->link_load_max = std::max(exact_->link_load_max,
                                   result.link_load.max());
  digest_.mix(static_cast<std::uint64_t>(result.delivered));
  digest_.mix(static_cast<std::uint64_t>(result.cycles));
  digest_.mix(static_cast<std::uint64_t>(result.flits_moved));
  digest_.mix_double(result.queue_cycles.sum());
  digest_.mix_double(result.stall_cycles.sum());
}

void Runner::round(int slot_index, HostRecord* host, ExactRecord* exact,
                   LayerRecord* layer) {
  slot_index_ = slot_index;
  slot_ = &state_.slots[static_cast<std::size_t>(slot_index)];
  word_ = 0;
  probe_word_ = 0;
  host_ = host;
  exact_ = exact;
  layer_ = layer;
  digest_ = Fnv{};
  Timed round_span(tracer_, "bench.round", slot_index);

  {
    Timed phase(tracer_, "phase.ref_kernel", slot_index);
    host->kernel_us = kernel_.measure(Tracer::now_us);
  }

  // Untimed re-anchor: restore the slot's base and run one fault event,
  // so the solver context matches and every timed event is incremental.
  {
    Timed phase(tracer_, "phase.anchor", slot_index);
    {
      Timed t(tracer_, "manager.restore", slot_index);
      state_.manager->restore(
          state_.bases[static_cast<std::size_t>(slot_index)]);
    }
    fault_event(slot_->anchor, /*timed=*/false, -1);
    if (mix_.warm) warm();
  }

  sim_batch();

  for (int e = 0; e < mix_.events; ++e) {
    const std::int64_t event_id = slot_index * 1000 + e;
    if (mix_.batch_vends > 0) {
      Timed phase(tracer_, "phase.vend_batch", event_id);
      for (int i = 0; i < mix_.batch_vends; ++i) {
        if (auto v = vend(serve::ServeStatus::kFresh)) {
          host->vend_us.push_back(v->us);
        }
      }
      settle();
    }
    {
      Timed phase(tracer_, "phase.fault_event", event_id);
      fault_event(slot_->events[static_cast<std::size_t>(e)], true,
                  event_id);
    }
    if (mix_.warm && e + 1 < mix_.events) {
      Timed phase(tracer_, "phase.rewarm", event_id);
      warm();
    }
  }
  exact->digest = digest_.value;
}

// --- Reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

struct PhaseStats {
  double wall_us = 0.0;
  double covered_us = 0.0;
  std::int64_t count = 0;
  std::map<std::string, std::pair<std::int64_t, double>> children;
};

// Self time, child spans and residual per phase of the traced rounds.
std::map<std::string, PhaseStats> phase_breakdown(
    const Tracer& tracer, const std::vector<lamb::obs::TraceEvent>& program,
    std::map<std::string, std::pair<double, double>>* call_self) {
  const auto& spans = tracer.spans();
  std::map<std::string, PhaseStats> phases;
  std::vector<double> child_us(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0) {
      child_us[static_cast<std::size_t>(parent)] +=
          spans[i].end_us - spans[i].start_us;
    }
  }
  // Program spans (solver etc.) count as children of the innermost bench
  // span of manager.* that contains them, by time.
  std::vector<std::size_t> manager_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name).rfind("manager.", 0) == 0) {
      manager_spans.push_back(i);
    }
  }
  for (const lamb::obs::TraceEvent& e : program) {
    const auto it = std::upper_bound(
        manager_spans.begin(), manager_spans.end(), e.ts_us,
        [&](double ts, std::size_t idx) { return ts < spans[idx].start_us; });
    if (it == manager_spans.begin()) continue;
    const std::size_t idx = *(it - 1);
    if (e.ts_us + e.dur_us <= spans[idx].end_us + 1e-3) {
      (*call_self)[std::string(spans[idx].name) + " > " + e.name].second +=
          e.dur_us;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double dur = spans[i].end_us - spans[i].start_us;
    if (name.rfind("phase.", 0) == 0) {
      PhaseStats& p = phases[name.substr(6)];
      p.wall_us += dur;
      p.covered_us += child_us[i];
      ++p.count;
    } else {
      auto& self = (*call_self)[name];
      self.first += dur - child_us[i];
    }
    const int parent = spans[i].parent;
    if (parent >= 0) {
      const std::string pname = spans[static_cast<std::size_t>(parent)].name;
      if (pname.rfind("phase.", 0) == 0) {
        auto& c = phases[pname.substr(6)].children[name];
        ++c.first;
        c.second += dur;
      }
    }
  }
  return phases;
}

void print_metric(const Metric& m) {
  std::printf("# metric %-34s %14.4f %-12s n=%lld\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void print_metrics_json(bool correct, const Failures& failures,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(failures.attempted),
              static_cast<long long>(failures.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool sweep_load = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--sweep-load") {
      args->sweep_load = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Host samples of a set of rounds, each scaled by its round's factor.
struct HostPool {
  std::vector<double> vend, vend_raw, ftf, ftf_raw, kernel;
  // Flit traversals per second of Network::run, one rate per round; the
  // median leaves out the rounds whose run the host preempted.
  std::vector<double> sim_rate, sim_rate_raw;
  std::int64_t rounds = 0;
};

double scale_of(const HostRecord& h) {
  return RefKernel::kNominalUs / h.kernel_us;
}

HostPool pool_of(const std::vector<const HostRecord*>& records) {
  HostPool p;
  for (const HostRecord* h : records) {
    const double f = scale_of(*h);
    p.kernel.push_back(h->kernel_us);
    for (const double v : h->vend_us) {
      p.vend.push_back(v * f);
      p.vend_raw.push_back(v);
    }
    for (const double v : h->ftf_us) {
      p.ftf.push_back(v * f);
      p.ftf_raw.push_back(v);
    }
    const double flits = static_cast<double>(h->sim_flits_moved);
    p.sim_rate.push_back(flits / (h->sim_run_us * f * 1e-6));
    p.sim_rate_raw.push_back(flits / (h->sim_run_us * 1e-6));
    ++p.rounds;
  }
  return p;
}

double per_second(double count, const std::vector<double>& us) {
  double total = 0.0;
  for (const double x : us) total += x;
  return count / (total * 1e-6);
}

double frac(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// One measured round.
struct RoundRun {
  int slot = 0;
  int cycle = 0;
  bool traced = false;
  HostRecord host;
};

// Everything a run measured.
struct RunData {
  std::vector<double> setup_raw_s, setup_scaled_s;
  std::vector<RoundRun> rounds;
  ExactRecord exact;  // first cycle, summed
  LayerRecord layer;  // traced rounds
  double rss_mb = 0.0;
  int slots = 0;

  HostPool pool(bool traced) const {
    std::vector<const HostRecord*> records;
    for (const RoundRun& r : rounds) {
      if (r.traced == traced) records.push_back(&r.host);
    }
    return pool_of(records);
  }
};

// Builds the state kSetupReps times and keeps the last build. Each build
// is scaled by the mean of two kernel measurements, one just before it
// and one just after. The base solves run at pool width 1: whether a
// second vCPU of the shared host is free would otherwise move setup_s by
// a quarter.
std::unique_ptr<State> set_up(const Mix& mix, std::uint64_t seed,
                              RunData* data) {
  std::unique_ptr<State> state;
  RefKernel kernel(mix.dim, mix.width);
  lamb::par::set_threads(1);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    const double kernel_before_us = kernel.measure(Tracer::now_us);
    const double start = Tracer::now_us();
    state = build_state(mix, seed);
    // The service constructor made the first publish; warm the first
    // base's pool as every round does.
    if (mix.warm) {
      const auto table = state->service->table();
      warm_floods(*table, state->pools[0].empty() ? table->survivors()
                                                  : state->pools[0]);
    }
    const double raw_s = (Tracer::now_us() - start) * 1e-6;
    const double kernel_us =
        0.5 * (kernel_before_us + kernel.measure(Tracer::now_us));
    data->setup_raw_s.push_back(raw_s);
    data->setup_scaled_s.push_back(raw_s * RefKernel::kNominalUs / kernel_us);
  }
  return state;
}

std::vector<Metric> end_to_end(const RunData& data) {
  const HostPool host = data.pool(false);
  const ExactRecord& exact = data.exact;
  const auto vend_n = static_cast<std::int64_t>(host.vend.size());
  const auto ftf_n = static_cast<std::int64_t>(host.ftf.size());
  const auto lat_n = static_cast<std::int64_t>(exact.latencies.size());
  std::vector<double> lambs(exact.lambs.begin(), exact.lambs.end());
  return {
      {"setup_s", quantile(data.setup_scaled_s, 0.5), "s", kSetupReps},
      {"vend_p50_us", quantile(host.vend, 0.5), "us", vend_n},
      {"vend_p99_us", quantile(host.vend, 0.99), "us", vend_n},
      {"vends_per_s", per_second(static_cast<double>(vend_n), host.vend),
       "1/s", vend_n},
      {"fault_to_fresh_p50_us", quantile(host.ftf, 0.5), "us", ftf_n},
      {"fault_to_fresh_p90_us", quantile(host.ftf, 0.9), "us", ftf_n},
      {"sim_flits_per_s", quantile(host.sim_rate, 0.5), "1/s", host.rounds},
      {"sim_latency_p50_cycles", quantile(exact.latencies, 0.5), "cycles",
       lat_n},
      {"sim_latency_p99_cycles", quantile(exact.latencies, 0.99), "cycles",
       lat_n},
      {"sim_throughput_flits_per_cycle",
       frac(static_cast<double>(exact.sim_flits_delivered),
            static_cast<double>(exact.sim_cycles)),
       "flits/cycle", data.slots},
      {"lambs_mean", mean(lambs), "count",
       static_cast<std::int64_t>(lambs.size())},
      {"peak_rss_mb", data.rss_mb, "MB", 1},
  };
}

// Scaled timed work of traced rounds (probe rounds excepted) over that of
// the untraced round of the same slot next to each, minus one, in percent;
// `pairs` is set to the number of pairs compared.
double trace_overhead_pct(const RunData& data, std::int64_t* pairs) {
  double traced_work = 0.0, untraced_work = 0.0;
  *pairs = 0;
  const auto& rounds = data.rounds;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (!rounds[i].traced || probe_round(rounds[i].slot)) continue;
    const bool before = i > 0 && !rounds[i - 1].traced &&
                        rounds[i - 1].slot == rounds[i].slot;
    const HostRecord& traced = rounds[i].host;
    const HostRecord& untraced = rounds[before ? i - 1 : i + 1].host;
    traced_work += traced.work_us * scale_of(traced);
    untraced_work += untraced.work_us * scale_of(untraced);
    ++*pairs;
  }
  return 100.0 * (frac(traced_work, untraced_work) - 1.0);
}

// Prints the phase breakdown of the traced rounds and returns the
// per-layer metrics.
std::vector<Metric> per_layer(const RunData& data, const Tracer& tracer,
                              const std::vector<lamb::obs::TraceEvent>& program) {
  std::map<std::string, std::pair<double, double>> call_self;
  const auto phases = phase_breakdown(tracer, program, &call_self);
  for (const auto& [name, p] : phases) {
    std::printf("# phase %-12s n=%-5lld wall=%.1fus/each residual=%.2f%%\n",
                name.c_str(), static_cast<long long>(p.count),
                p.wall_us / static_cast<double>(p.count),
                100.0 * frac(p.wall_us - p.covered_us, p.wall_us));
    for (const auto& [child, c] : p.children) {
      std::printf("#   child %-26s n=%-7lld total=%.1fus\n", child.c_str(),
                  static_cast<long long>(c.first), c.second);
    }
  }
  for (const auto& [name, s] : call_self) {
    std::printf("# self %-48s self=%.1fus program=%.1fus\n", name.c_str(),
                s.first, s.second);
  }
  auto residual = [&](const char* phase) {
    const auto it = phases.find(phase);
    if (it == phases.end()) return 0.0;  // the workload has no such phase
    return 100.0 * frac(it->second.wall_us - it->second.covered_us,
                        it->second.wall_us);
  };
  const HostPool host = data.pool(false);
  const LayerRecord& layer = data.layer;
  const ExactRecord& exact = data.exact;
  const auto events = static_cast<double>(layer.events);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  const auto vend_n = n(host.vend_raw);
  const auto ftf_n = n(host.ftf_raw);
  const std::int64_t floods = exact.floods_retained + exact.floods_dropped;
  std::int64_t overhead_pairs = 0;
  const double overhead_pct = trace_overhead_pct(data, &overhead_pairs);
  return {
      {"serve.route_hit_us_p50", quantile(layer.route_hit_us, 0.5), "us",
       n(layer.route_hit_us)},
      {"serve.route_miss_us_p50", quantile(layer.route_miss_us, 0.5), "us",
       n(layer.route_miss_us)},
      {"serve.ladder_overhead_us_p50", quantile(layer.ladder_us, 0.5), "us",
       n(layer.ladder_us)},
      {"serve.flood_miss_frac",
       frac(static_cast<double>(layer.flood_misses),
            2.0 * static_cast<double>(layer.submits)),
       "ratio", layer.submits},
      {"serve.stale_frac",
       frac(static_cast<double>(layer.stale),
            static_cast<double>(layer.submits)),
       "ratio", layer.submits},
      {"serve.capture_us_p50", quantile(layer.capture_us, 0.5), "us",
       n(layer.capture_us)},
      {"serve.publish_us_p50", quantile(layer.publish_us, 0.5), "us",
       n(layer.publish_us)},
      {"serve.floods_retained_frac",
       frac(static_cast<double>(exact.floods_retained),
            static_cast<double>(floods)),
       "ratio", floods},
      {"manager.report_us_p50", quantile(layer.report_us, 0.5), "us",
       n(layer.report_us)},
      {"manager.reconfigure_us_p50", quantile(layer.reconfigure_us, 0.5),
       "us", n(layer.reconfigure_us)},
      {"manager.reconfigure_us_p90", quantile(layer.reconfigure_us, 0.9),
       "us", n(layer.reconfigure_us)},
      {"manager.incremental_frac",
       frac(static_cast<double>(layer.incremental), events), "ratio",
       layer.events},
      {"core.partition_us_p50", quantile(layer.partition_us, 0.5), "us",
       n(layer.partition_us)},
      {"core.matrices_us_p50", quantile(layer.matrices_us, 0.5), "us",
       n(layer.matrices_us)},
      {"core.cover_us_p50", quantile(layer.cover_us, 0.5), "us",
       n(layer.cover_us)},
      {"core.blocks_reused_mean", frac(layer.blocks_reused, events), "count",
       layer.events},
      {"manager.lambs_new_mean", frac(layer.lambs_new, events), "count",
       layer.events},
      {"wormhole.submit_us_p50", quantile(layer.wsubmit_us, 0.5), "us",
       n(layer.wsubmit_us)},
      {"wormhole.run_ns_per_flit",
       frac(layer.run_us * 1e3, static_cast<double>(layer.run_flits)), "ns",
       layer.run_flits},
      {"wormhole.queue_cycles_mean",
       frac(exact.queue_cycles_sum, static_cast<double>(exact.sim_delivered)),
       "cycles", exact.sim_delivered},
      {"wormhole.stall_cycles_mean",
       frac(exact.stall_cycles_sum, static_cast<double>(exact.sim_delivered)),
       "cycles", exact.sim_delivered},
      {"wormhole.link_load_max", exact.link_load_max, "flits", data.slots},
      {"reach.route_hops_mean",
       frac(exact.hops_sum, static_cast<double>(exact.routes)), "hops",
       exact.routes},
      {"reach.route_turns_mean",
       frac(exact.turns_sum, static_cast<double>(exact.routes)), "turns",
       exact.routes},
      {"host.ref_kernel_us_p50", quantile(host.kernel, 0.5), "us",
       n(host.kernel)},
      {"host.raw.setup_s", quantile(data.setup_raw_s, 0.5), "s", kSetupReps},
      {"host.raw.vend_p50_us", quantile(host.vend_raw, 0.5), "us", vend_n},
      {"host.raw.vend_p99_us", quantile(host.vend_raw, 0.99), "us", vend_n},
      {"host.raw.vends_per_s",
       per_second(static_cast<double>(vend_n), host.vend_raw), "1/s", vend_n},
      {"host.raw.fault_to_fresh_p50_us", quantile(host.ftf_raw, 0.5), "us",
       ftf_n},
      {"host.raw.fault_to_fresh_p90_us", quantile(host.ftf_raw, 0.9), "us",
       ftf_n},
      {"host.raw.sim_flits_per_s", quantile(host.sim_rate_raw, 0.5), "1/s",
       host.rounds},
      {"host.trace_overhead_pct", overhead_pct, "%", overhead_pairs},
      {"phase.anchor.residual_pct", residual("anchor"), "%",
       phases.count("anchor") ? phases.at("anchor").count : 0},
      {"phase.sim_batch.residual_pct", residual("sim_batch"), "%",
       phases.count("sim_batch") ? phases.at("sim_batch").count : 0},
      {"phase.vend_batch.residual_pct", residual("vend_batch"), "%",
       phases.count("vend_batch") ? phases.at("vend_batch").count : 0},
      {"phase.fault_event.residual_pct", residual("fault_event"), "%",
       phases.count("fault_event") ? phases.at("fault_event").count : 0},
  };
}

// Offered-load sweep of a workload's sim batch: the first kSweepSlots
// rounds at each injection gap, with the exact simulated figures and the
// source-queue check. Untimed; it justifies the workload's inject_gap.
int sweep_load(const Mix& mix, State& state) {
  std::printf("# sweep %s: %d slots per load, %d messages of %d flits\n",
              mix.name, std::min(mix.slots, kSweepSlots), mix.sim_messages,
              mix.message_flits);
  std::printf("# gap  offered  throughput  lat_p50  lat_p99  queue_mean  "
              "queue_first  queue_last  growth  failed\n");
  for (const double gap : {1.0, 0.75, 0.6, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25}) {
    Mix at = mix;
    at.inject_gap = gap;
    Tracer tracer;
    Failures failures;
    Runner runner(at, state, tracer, failures);
    QueueCheck queues;
    runner.set_queue_check(&queues);
    ExactRecord total;
    for (int slot = 0; slot < std::min(mix.slots, kSweepSlots); ++slot) {
      HostRecord host;
      ExactRecord exact;
      runner.round(slot, &host, &exact, nullptr);
      total.add(exact);
    }
    const auto batches = static_cast<double>(queues.batches);
    std::printf("%5.2f  %7.2f  %10.3f  %7.0f  %7.0f  %10.2f  %11.2f  "
                "%10.2f  %6.2f  %6lld\n",
                gap, mix.message_flits / gap,
                frac(static_cast<double>(total.sim_flits_delivered),
                     static_cast<double>(total.sim_cycles)),
                quantile(total.latencies, 0.5), quantile(total.latencies, 0.99),
                frac(total.queue_cycles_sum,
                     static_cast<double>(total.sim_delivered)),
                frac(queues.first_sum, batches), frac(queues.last_sum, batches),
                queues.growth(), static_cast<long long>(failures.failed));
  }
  return 0;
}

int run(const Args& args) {
  const Mix* mix = nullptr;
  for (const Mix& m : kMixes) {
    if (args.workload == m.name) mix = &m;
  }
  if (mix == nullptr) {
    std::fprintf(stderr, "pipebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  RunData data;
  data.slots = mix->slots;
  const std::unique_ptr<State> state = set_up(*mix, args.seed, &data);
  if (args.sweep_load) return sweep_load(*mix, *state);
  const int pool_width = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kPoolWidth);
  lamb::par::set_threads(pool_width);
  const int slots = mix->slots;
  std::printf("# pipebench workload=%s seed=%llu seconds=%g trace=%d\n",
              mix->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# config geometry=%s k=%d initial_faults=%.3g%% bases=%d "
              "pool=%d warm=%d solver_pool_width=%d (set-up: 1)\n",
              state->shape.to_string().c_str(), kRounds,
              mix->fault_frac * 100.0, slots, mix->pool, mix->warm ? 1 : 0,
              lamb::par::threads());
  std::printf("# config round: sim_messages=%d flits=%d inject_gap=%g "
              "events=%d x (batch_vends=%d stale_vends=%d burst_vends=%d "
              "1-2 reports/event, 30%% links)\n",
              mix->sim_messages, mix->message_flits, mix->inject_gap,
              mix->events, mix->batch_vends, mix->stale_vends,
              mix->burst_vends);

  Tracer tracer;
  Failures failures;
  Runner runner(*mix, *state, tracer, failures);
  std::vector<std::uint64_t> slot_digest(static_cast<std::size_t>(slots));
  std::int64_t digest_mismatches = 0;

  // Trace mode traces the first kTracedSlots slots of cycle 1. Each
  // traced round that is not a probe round runs next to an untraced round
  // of the same slot, so host.trace_overhead_pct compares rounds adjacent
  // in time. A slot run twice in a row is faster the second time, so the
  // untraced round comes first and second in turn. All are repeats,
  // checked against cycle 0's digest.
  const int traced_slots = std::min(slots, kTracedSlots);
  const int min_rounds = args.trace ? slots + traced_slots : slots;
  const double loop_start = Tracer::now_us();
  std::size_t vend_samples = 0, ftf_samples = 0;
  auto run_round = [&](int slot, int cycle, bool traced) {
    RoundRun round;
    round.slot = slot;
    round.cycle = cycle;
    round.traced = traced;
    ExactRecord exact;
    tracer.set_enabled(round.traced);
    runner.round(round.slot, &round.host, &exact,
                 round.traced ? &data.layer : nullptr);
    tracer.set_enabled(false);
    auto& digest = slot_digest[static_cast<std::size_t>(round.slot)];
    if (round.cycle == 0) {
      digest = exact.digest;
      data.exact.add(exact);
      // Footprint once every slot has run, before the bench's own sample
      // store grows with the run length.
      if (round.slot + 1 == slots) data.rss_mb = peak_rss_mb();
    } else if (exact.digest != digest) {
      ++digest_mismatches;
    }
    if (!round.traced) {
      vend_samples += round.host.vend_us.size();
      ftf_samples += round.host.ftf_us.size();
    }
    data.rounds.push_back(std::move(round));
  };
  for (int r = 0;; ++r) {
    const int slot = r % slots;
    const int cycle = r / slots;
    const bool traced = args.trace && cycle == 1 && slot < traced_slots;
    const bool paired = traced && !probe_round(slot);
    const bool untraced_first = (slot / 2) % 2 == 0;
    if (paired && untraced_first) run_round(slot, cycle, false);
    run_round(slot, cycle, traced);
    if (paired && !untraced_first) run_round(slot, cycle, false);
    const double elapsed_s = (Tracer::now_us() - loop_start) * 1e-6;
    if (r + 1 >= min_rounds && elapsed_s >= args.seconds &&
        vend_samples >= 1000 && ftf_samples >= 100) {
      break;
    }
  }
  const double measured_s = (Tracer::now_us() - loop_start) * 1e-6;

  // Replay the first slots at both solver pool widths, with the
  // simulator's queue telemetry on: same digests, and no source-queue
  // backlog building up through a sim batch. The loop may end inside the
  // first cycle, so these are the repeats every run is sure to make.
  QueueCheck queues;
  runner.set_queue_check(&queues);
  for (const int width : {pool_width, 1}) {
    lamb::par::set_threads(width);
    for (int slot = 0; slot < std::min(slots, kReplaySlots); ++slot) {
      HostRecord host;
      ExactRecord exact;
      runner.round(slot, &host, &exact, nullptr);
      if (exact.digest != slot_digest[static_cast<std::size_t>(slot)]) {
        ++digest_mismatches;
      }
    }
  }
  runner.set_queue_check(nullptr);
  lamb::par::set_threads(pool_width);
  if (digest_mismatches > 0) failures.fail("digest_mismatch");
  if (queues.growth() > kQueueGrowthLimit) failures.fail("sim_queue_growth");
  std::printf("# queue check batches=%lld wait first_quarter=%.2f "
              "last_quarter=%.2f growth=%.2f cycles (limit %.1f)\n",
              static_cast<long long>(queues.batches),
              frac(queues.first_sum, static_cast<double>(queues.batches)),
              frac(queues.last_sum, static_cast<double>(queues.batches)),
              queues.growth(), kQueueGrowthLimit);

  // Drift check: per cycle, the scaled vend p50/p99, the raw p50 and the
  // kernel median of the untraced rounds.
  for (int c = 0; c <= data.rounds.back().cycle; ++c) {
    std::vector<const HostRecord*> in_cycle;
    for (const RoundRun& r : data.rounds) {
      if (r.cycle == c && !r.traced) in_cycle.push_back(&r.host);
    }
    if (in_cycle.empty()) continue;  // a fully traced cycle
    const HostPool p = pool_of(in_cycle);
    std::printf("# cycle %d rounds=%lld vend_p50=%.3fus p99=%.3fus "
                "raw_p50=%.3fus kernel_p50=%.1fus\n",
                c, static_cast<long long>(p.rounds), quantile(p.vend, 0.5),
                quantile(p.vend, 0.99), quantile(p.vend_raw, 0.5),
                quantile(p.kernel, 0.5));
  }

  const std::vector<Metric> e2e = end_to_end(data);
  const HostPool host = data.pool(false);
  if (!percentile_supported(host.vend.size(), 0.99) ||
      !percentile_supported(host.ftf.size(), 0.9) ||
      !percentile_supported(data.exact.latencies.size(), 0.99)) {
    failures.fail("percentile_undersampled");
  }
  std::vector<Metric> layers;  // filled by a traced run
  if (args.trace) {
    const std::vector<lamb::obs::TraceEvent> program =
        lamb::obs::TraceSink::global().events();
    layers = per_layer(data, tracer, program);
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out, program)) {
      std::fprintf(stderr, "pipebench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  Fnv workload_digest;
  for (const std::uint64_t d : slot_digest) workload_digest.mix(d);
  std::printf("# rounds=%zu (traced %lld) cycles=%.2f measured=%.2fs "
              "digest=0x%016llx\n",
              data.rounds.size(),
              static_cast<long long>(data.pool(true).rounds),
              static_cast<double>(data.rounds.size()) / slots, measured_s,
              static_cast<unsigned long long>(workload_digest.value));
  std::printf("# failures attempted=%lld failed=%lld digest_mismatches=%lld\n",
              static_cast<long long>(failures.attempted),
              static_cast<long long>(failures.failed),
              static_cast<long long>(digest_mismatches));
  for (const auto& [kind, count] : failures.kinds) {
    std::printf("#   %s: %lld\n", kind.c_str(), static_cast<long long>(count));
  }
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : layers) print_metric(m);
  print_metrics_json(failures.failed == 0, failures,
                     args.trace ? layers : e2e);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] [--sweep-load 1]\n");
    return 2;
  }
  return pipebench::run(args);
}
