// Tests for the flit-level telemetry tier: window series fed from
// cumulative counters (retention, idle-gap padding and eviction, the
// lifecycle-event cap), histogram quantiles against a
// reference sort, lifecycle/latency decomposition invariants, the
// stall watchdog on a hand-built two-message wait-for cycle (and its
// silence when a VC per round is available), zero-cost disabled mode,
// and determinism of simulation outcomes with telemetry on vs off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/lamb.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

namespace lamb {
namespace {

using obs::ChannelSample;
using obs::LatencyRecord;
using obs::Telemetry;
using obs::TelemetryConfig;
using wormhole::Hop;
using wormhole::Message;
using wormhole::Network;
using wormhole::RouteCache;
using wormhole::SimConfig;
using wormhole::SimResult;
using wormhole::TrafficConfig;

TelemetryConfig enabled_config() {
  TelemetryConfig config;
  config.enabled = true;
  return config;
}

// --- Window series over the simulator's counter feed ----------------

// Stand-in for the simulator's per-slot arrays: cumulative flit
// counters and occupancy bytes over the dense link_id slot space.
struct CounterFeed {
  CounterFeed(const MeshShape& shape, int vcs)
      : vcs(vcs),
        flits(static_cast<std::size_t>(shape.size() * shape.dim() * 2 * vcs)),
        occupancy(flits.size()) {}

  Telemetry collector(const MeshShape& shape, TelemetryConfig config) {
    return Telemetry(shape, vcs, config, flits.data(), occupancy.data());
  }
  std::size_t slot(LinkId link, int vc) const {
    return static_cast<std::size_t>(link * vcs + vc);
  }

  int vcs;
  std::vector<std::int32_t> flits;
  std::vector<std::uint8_t> occupancy;
};

TEST(TelemetryRing, RetainsMostRecentWindows) {
  const MeshShape shape = MeshShape::cube(2, 4);
  TelemetryConfig config = enabled_config();
  config.sample_every = 1;  // one window per cycle
  config.ring_windows = 4;
  CounterFeed feed(shape, 1);
  Telemetry telemetry = feed.collector(shape, config);
  const LinkId link = shape.link_id(shape.index(Point{1, 1}), 0, Dir::Pos);
  feed.occupancy[feed.slot(link, 0)] = 3;

  // Ten windows of one flit each through a 4-deep ring: only the last
  // four survive, and the series reports where its history begins.
  for (std::int64_t cycle = 1; cycle <= 10; ++cycle) {
    ++feed.flits[feed.slot(link, 0)];
    telemetry.end_window(cycle);
  }
  EXPECT_EQ(telemetry.windows(), 10);

  std::int64_t first_window = -1;
  std::vector<ChannelSample> samples;
  ASSERT_TRUE(telemetry.channel_series(link, 0, &first_window, &samples));
  EXPECT_EQ(first_window, 6);
  ASSERT_EQ(samples.size(), 4u);
  for (const ChannelSample& s : samples) {
    EXPECT_EQ(s.flits, 1);
    EXPECT_EQ(s.occupancy, 3);
  }
  // Totals are exact even though the ring dropped the early windows.
  EXPECT_EQ(telemetry.total_channel_flits(), 10);
}

TEST(TelemetryRing, PadsIdleWindowsOnFlush) {
  const MeshShape shape = MeshShape::cube(2, 4);
  TelemetryConfig config = enabled_config();
  config.sample_every = 10;
  config.ring_windows = 8;
  CounterFeed feed(shape, 2);
  Telemetry telemetry = feed.collector(shape, config);
  const LinkId link = shape.link_id(shape.index(Point{0, 0}), 1, Dir::Pos);

  // Three flits early on, then the simulator fast-forwards an idle gap:
  // the flits land in the first pending window, the rest pad with zeros.
  feed.flits[feed.slot(link, 1)] += 3;
  telemetry.end_window(40);
  EXPECT_EQ(telemetry.windows(), 4);

  std::int64_t first_window = -1;
  std::vector<ChannelSample> samples;
  ASSERT_TRUE(telemetry.channel_series(link, 1, &first_window, &samples));
  EXPECT_EQ(first_window, 0);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].flits, 3);
  for (std::size_t i = 1; i < samples.size(); ++i) EXPECT_EQ(samples[i].flits, 0);

  // A trailing partial window only closes on the final flush.
  ++feed.flits[feed.slot(link, 1)];
  telemetry.end_window(45);
  EXPECT_EQ(telemetry.windows(), 4);
  telemetry.end_window(45, /*final=*/true);
  EXPECT_EQ(telemetry.windows(), 5);
  ASSERT_TRUE(telemetry.channel_series(link, 1, &first_window, &samples));
  EXPECT_EQ(samples.back().flits, 1);
  EXPECT_EQ(telemetry.total_channel_flits(), 4);
}

TEST(TelemetryRing, IdleGapLongerThanTheRingKeepsNoEvictedFlits) {
  // One close spanning more windows than the ring holds: the flits belong
  // to window 0, which the same close evicts, so every surviving window
  // is idle padding.
  const MeshShape shape = MeshShape::cube(2, 4);
  TelemetryConfig config = enabled_config();
  config.sample_every = 1;
  config.ring_windows = 4;
  CounterFeed feed(shape, 1);
  Telemetry telemetry = feed.collector(shape, config);
  const LinkId link = shape.link_id(shape.index(Point{1, 1}), 0, Dir::Pos);
  feed.flits[feed.slot(link, 0)] = 3;
  telemetry.end_window(10);

  std::int64_t first_window = -1;
  std::vector<ChannelSample> samples;
  ASSERT_TRUE(telemetry.channel_series(link, 0, &first_window, &samples));
  EXPECT_EQ(first_window, 6);
  ASSERT_EQ(samples.size(), 4u);
  for (const ChannelSample& s : samples) EXPECT_EQ(s.flits, 0);
  EXPECT_EQ(telemetry.total_channel_flits(), 3);
}

TEST(TelemetryRing, UnusedChannelHasNoSeries) {
  const MeshShape shape = MeshShape::cube(2, 4);
  CounterFeed feed(shape, 2);
  Telemetry telemetry = feed.collector(shape, enabled_config());
  std::int64_t first_window = -1;
  std::vector<ChannelSample> samples;
  EXPECT_FALSE(telemetry.channel_series(
      shape.link_id(shape.index(Point{2, 2}), 0, Dir::Neg), 1, &first_window,
      &samples));
}

TEST(TelemetryEvents, DropsEventsPastTheCap) {
  const MeshShape shape = MeshShape::cube(2, 4);
  CounterFeed feed(shape, 1);
  Telemetry telemetry = feed.collector(shape, enabled_config());
  const std::int64_t cap = std::int64_t{1} << 20;
  ASSERT_EQ(Telemetry::kMaxEvents, static_cast<std::size_t>(cap));
  for (std::int64_t i = 0; i < cap + 5; ++i) {
    telemetry.on_event(obs::MsgEvent::kInject, i, i);
  }
  EXPECT_EQ(telemetry.events_recorded(), cap);
  EXPECT_EQ(telemetry.events_dropped(), 5);
}

// --- Histogram quantiles vs a reference sort --------------------------

TEST(HistogramQuantile, TracksReferenceSort) {
  obs::MetricsRegistry reg(/*enabled=*/true);
  auto& hist = reg.histogram("test.telemetry.quantile",
                             obs::Histogram::exponential_bounds(1, 2, 20));
  std::vector<double> reference;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const double x = 1.0 + static_cast<double>(rng.below(5000));
    hist.observe(x);
    reference.push_back(x);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact =
        reference[static_cast<std::size_t>(q * (reference.size() - 1))];
    const double approx = hist.quantile(q);
    // Bucketed quantiles are exact to within one power-of-two bucket.
    EXPECT_GE(approx, exact / 2.0) << "q=" << q;
    EXPECT_LE(approx, exact * 2.0) << "q=" << q;
  }
  EXPECT_EQ(hist.quantile(0.0), reference.front());
  EXPECT_EQ(hist.quantile(1.0), reference.back());
}

TEST(SamplesQuantile, ExactAgainstSort) {
  // SimResult::latency_samples uses Samples: quantiles must be exact
  // order statistics, not bucket approximations.
  Samples samples;
  std::vector<double> reference;
  Rng rng(7);
  for (int i = 0; i < 501; ++i) {
    const double x = static_cast<double>(rng.below(10000));
    samples.add(x);
    reference.push_back(x);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.50, 0.95, 0.99}) {
    const double got = samples.quantile(q);
    EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(), got))
        << "quantile " << q << " = " << got << " is not an observed value";
  }
  EXPECT_EQ(samples.quantile(0.0), reference.front());
  EXPECT_EQ(samples.quantile(1.0), reference.back());
}

// --- Latency decomposition --------------------------------------------

TEST(LatencyRecord, DecompositionAddsUp) {
  LatencyRecord rec;
  rec.inject = 10;
  rec.start = 14;
  rec.finish = 30;
  rec.hops = 5;
  rec.flits = 4;
  EXPECT_EQ(rec.queue_cycles(), 4);
  EXPECT_EQ(rec.transit_cycles(), 8);  // hops + flits - 1
  EXPECT_EQ(rec.stall_cycles(), 8);    // 20 total - 4 queue - 8 transit
  EXPECT_EQ(rec.queue_cycles() + rec.transit_cycles() + rec.stall_cycles(),
            rec.finish - rec.inject);

  LatencyRecord local = rec;
  local.hops = 0;  // src == dst: never touches the network
  EXPECT_EQ(local.transit_cycles(), 0);
}

// --- End-to-end through the simulator ---------------------------------

// Uniform survivor traffic on a small faulty mesh, identical across
// calls so on/off comparisons see the same workload.
std::vector<Message> sample_traffic(const MeshShape& shape,
                                    const FaultSet& faults) {
  const LambResult lambs = lamb1(shape, faults, {});
  RouteCache routes(shape, faults, ascending_rounds(2, 2));
  Rng rng(42);
  TrafficConfig tc;
  tc.num_messages = 120;
  tc.message_flits = 6;
  tc.injection_gap = 0.8;
  const auto traffic =
      generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
  EXPECT_EQ(traffic.unroutable, 0);
  return traffic.messages;
}

TEST(NetworkTelemetry, DisabledByDefaultAndRecordsNothing) {
  const MeshShape shape = MeshShape::cube(2, 6);
  Rng frng(5);
  const FaultSet faults = FaultSet::random_nodes(shape, 3, frng);
  Network net(shape, faults, SimConfig{});
  EXPECT_EQ(net.telemetry(), nullptr);  // zero events, zero series, no hooks
  for (const Message& m : sample_traffic(shape, faults)) net.submit(m);
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_EQ(net.telemetry(), nullptr);
}

TEST(NetworkTelemetry, ChannelTotalsMatchSimulatorCounters) {
  const MeshShape shape = MeshShape::cube(2, 6);
  Rng frng(5);
  const FaultSet faults = FaultSet::random_nodes(shape, 3, frng);
  SimConfig config;
  config.telemetry = enabled_config();
  config.telemetry.sample_every = 16;
  Network net(shape, faults, config);
  ASSERT_NE(net.telemetry(), nullptr);
  for (const Message& m : sample_traffic(shape, faults)) net.submit(m);
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());

  const Telemetry& telemetry = *net.telemetry();
  // The windowed series and the PR-1 flit counters must agree exactly.
  EXPECT_EQ(telemetry.total_channel_flits(), result.flits_moved);
  EXPECT_GT(telemetry.windows(), 0);
  EXPECT_GT(telemetry.events_recorded(), 0);
  EXPECT_EQ(telemetry.events_dropped(), 0);

  // Every delivered message gets a record whose decomposition is
  // non-negative and sums to its end-to-end latency.
  ASSERT_EQ(static_cast<std::int64_t>(telemetry.latencies().size()),
            result.delivered);
  for (const LatencyRecord& rec : telemetry.latencies()) {
    EXPECT_GE(rec.queue_cycles(), 0);
    EXPECT_GE(rec.transit_cycles(), 0);
    EXPECT_GE(rec.stall_cycles(), 0);
    EXPECT_EQ(rec.queue_cycles() + rec.transit_cycles() + rec.stall_cycles(),
              rec.finish - rec.inject);
  }
  EXPECT_EQ(telemetry.stall_report(), nullptr);  // 2 VCs: no watchdog
}

TEST(NetworkTelemetry, OnOffOutcomesIdenticalAtAnyThreadWidth) {
  const MeshShape shape = MeshShape::cube(2, 6);
  Rng frng(5);
  const FaultSet faults = FaultSet::random_nodes(shape, 3, frng);
  const auto messages = sample_traffic(shape, faults);

  auto run_once = [&](bool telemetry_on) {
    SimConfig config;
    if (telemetry_on) config.telemetry = enabled_config();
    Network net(shape, faults, config);
    for (const Message& m : messages) net.submit(m);
    return net.run();
  };

  for (int threads : {1, 4}) {
    par::set_threads(threads);
    const SimResult off = run_once(false);
    const SimResult on = run_once(true);
    EXPECT_EQ(off.delivered, on.delivered);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.flits_moved, on.flits_moved);
    EXPECT_EQ(off.latency.mean(), on.latency.mean());
    EXPECT_EQ(off.latency.max(), on.latency.max());
    EXPECT_EQ(off.latency_samples.quantile(0.95),
              on.latency_samples.quantile(0.95));
  }
  par::set_threads(0);  // restore the default
}

// --- Stall watchdog ----------------------------------------------------

// Hand-built two-message wait-for cycle on one virtual channel:
//   A: (1,2) -x-> (3,2), then turns +y toward (3,4); its round-1 leg
//      owns channel c1 = (2,2)->(3,2) while its head waits on
//      c2 = (3,2)->(3,3).
//   B: (3,1) -y-> (3,3) through c2, then hooks around via (2,3), (2,2)
//      and finishes across c1.
// B acquires c2 (cycle 2) before A's head asks for it (cycle 3); A
// acquires c1 (cycle 2) long before B's head asks for it (cycle 5).
// With 24 flits neither tail releases, so A waits on B and B on A —
// a two-message cycle regardless of per-cycle iteration order. A
// second VC splits the rounds onto disjoint channels and the same
// traffic drains.
std::vector<Message> crossed_pair(const MeshShape& shape) {
  auto build = [&](std::int64_t id, Point src,
                   const std::vector<Hop>& hops) {
    Message m;
    m.id = id;
    m.route.src = shape.index(src);
    Point at = src;
    for (const Hop& hop : hops) {
      m.route.hops.push_back(hop);
      at[hop.dim] += static_cast<Coord>(dir_sign(hop.dir));
    }
    m.route.dst = shape.index(at);
    m.length_flits = 24;
    m.inject_cycle = 0;
    return m;
  };
  std::vector<Message> msgs;
  msgs.push_back(build(7, Point{1, 2},
                       {Hop{0, Dir::Pos, 0}, Hop{0, Dir::Pos, 0},
                        Hop{1, Dir::Pos, 1}, Hop{1, Dir::Pos, 1}}));
  msgs.push_back(build(9, Point{3, 1},
                       {Hop{1, Dir::Pos, 0}, Hop{1, Dir::Pos, 0},
                        Hop{0, Dir::Neg, 1}, Hop{1, Dir::Neg, 1},
                        Hop{0, Dir::Pos, 1}}));
  return msgs;
}

TEST(StallWatchdog, ReportsTwoMessageWaitForCycle) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  SimConfig config;
  config.vcs_per_link = 1;
  config.buffer_flits = 2;
  config.deadlock_threshold = 200;
  config.telemetry = enabled_config();
  config.telemetry.watchdog_cycles = 50;  // snapshot before the run dies
  Network net(shape, faults, config);
  for (const Message& m : crossed_pair(shape)) net.submit(m);
  const SimResult result = net.run();

  EXPECT_TRUE(result.deadlocked);
  ASSERT_NE(result.stall_report, nullptr);
  const obs::StallReport& report = *result.stall_report;
  EXPECT_GE(report.stalled_cycles, 50);
  ASSERT_TRUE(report.has_cycle());
  // Both messages, identified by id (not submission index), on the cycle.
  std::vector<std::int64_t> members = report.cycle_msgs;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<std::int64_t>{7, 9}));

  // Each cycle member contributes a wait-for edge on its blocked channel.
  std::int64_t on_cycle_edges = 0;
  for (const obs::WaitEdge& edge : report.edges) {
    if (!edge.on_cycle) continue;
    ++on_cycle_edges;
    EXPECT_TRUE((edge.waiter == 7 && edge.holder == 9) ||
                (edge.waiter == 9 && edge.holder == 7));
    EXPECT_GE(edge.link, 0);
    EXPECT_EQ(edge.vc, 0);
  }
  EXPECT_EQ(on_cycle_edges, 2);
  // The rendering names the deadlock and the cycle membership.
  const std::string text = report.render(shape);
  EXPECT_NE(text.find("CYCLE"), std::string::npos);
  EXPECT_NE(text.find("msg 7"), std::string::npos);
  EXPECT_NE(text.find("msg 9"), std::string::npos);
  // The same snapshot is retained on the collector for the dump.
  ASSERT_NE(net.telemetry()->stall_report(), nullptr);
  EXPECT_TRUE(net.telemetry()->stall_report()->has_cycle());
}

TEST(StallWatchdog, SilentWithOneVcPerRound) {
  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  SimConfig config;
  config.vcs_per_link = 2;  // one per round: deadlock-free by design
  config.buffer_flits = 2;
  config.deadlock_threshold = 200;
  config.telemetry = enabled_config();
  config.telemetry.watchdog_cycles = 50;
  Network net(shape, faults, config);
  for (const Message& m : crossed_pair(shape)) net.submit(m);
  const SimResult result = net.run();
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.all_delivered());
  EXPECT_EQ(result.stall_report, nullptr);
  EXPECT_EQ(net.telemetry()->stall_report(), nullptr);
}

// --- Dump plumbing -----------------------------------------------------

TEST(TelemetryDump, WritesCsvSchema) {
  const MeshShape shape = MeshShape::cube(2, 6);
  Rng frng(5);
  const FaultSet faults = FaultSet::random_nodes(shape, 3, frng);
  const std::string path =
      ::testing::TempDir() + "lambmesh_telemetry_test.csv";
  std::remove(path.c_str());
  SimConfig config;
  config.telemetry = enabled_config();
  config.telemetry.dump = "csv:" + path;
  Network net(shape, faults, config);
  for (const Message& m : sample_traffic(shape, faults)) net.submit(m);
  const SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());

  // Dumps go to <path> or <path>.<run> depending on how many dumping
  // runs this test process has already performed.
  std::string found = path;
  FILE* f = std::fopen(found.c_str(), "r");
  for (int run = 1; f == nullptr && run < 64; ++run) {
    found = obs::telemetry_run_path(path, run);
    f = std::fopen(found.c_str(), "r");
  }
  ASSERT_NE(f, nullptr) << "no dump written at " << path;
  char line[128] = {0};
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  std::fclose(f);
  EXPECT_EQ(std::string(line).rfind("# lambmesh telemetry v1", 0), 0u)
      << "unexpected header: " << line;
  std::remove(found.c_str());
}

TEST(TelemetryDump, CsvReportsAFullDevice) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const MeshShape shape = MeshShape::cube(2, 4);
  CounterFeed feed(shape, 2);
  Telemetry telemetry = feed.collector(shape, enabled_config());
  telemetry.on_inject_flit(0);
  telemetry.end_window(64, /*final=*/true);
  EXPECT_FALSE(telemetry.write_csv("/dev/full", 64));
}

TEST(TelemetryDump, RunPathUniquifiesRepeatedRuns) {
  EXPECT_EQ(obs::telemetry_run_path("out.csv", 0), "out.csv");
  EXPECT_EQ(obs::telemetry_run_path("out.csv", 1), "out.csv.1");
  EXPECT_EQ(obs::telemetry_run_path("out.csv", 12), "out.csv.12");
}

}  // namespace
}  // namespace lamb
