// Tests for the serving layer (src/serve/): token-bucket admission,
// bounded queues with typed Overloaded shedding, the epoch-swap
// degradation ladder (fresh -> stale -> dim-order fallback -> reject),
// deadlines, the client retry state machine, and the loadgen scenario's
// headline guarantees — zero failed covered requests, fully drained
// queues, and a request-outcome digest that is bit-identical at 1/4/16
// solver threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "manager/machine_manager.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/route.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/route_service.hpp"
#include "serve/route_table.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

using serve::Client;
using serve::ClientOptions;
using serve::RouteRequest;
using serve::RouteResponse;
using serve::RouteService;
using serve::ServeStatus;
using serve::ServiceOptions;
using serve::TokenBucket;

TEST(TokenBucket, RefillsOnCallerTicksAndCapsAtCapacity) {
  TokenBucket bucket(/*capacity=*/2.0, /*refill_per_tick=*/1.0, /*now=*/0);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // burst exhausted
  EXPECT_TRUE(bucket.try_take(1));   // one tick earns one token
  EXPECT_FALSE(bucket.try_take(1));
  // Idle ticks accumulate only up to capacity.
  EXPECT_DOUBLE_EQ(bucket.tokens(100), 2.0);
  // ticks_until rounds the deficit up and never returns less than 1.
  EXPECT_TRUE(bucket.try_take(100));
  EXPECT_TRUE(bucket.try_take(100));
  EXPECT_EQ(bucket.ticks_until(3.0, 100), 3);
  EXPECT_EQ(bucket.ticks_until(0.0, 100), 1);
}

// An 8x8 machine with one dead node, reconfigured to epoch 1 — the
// fixture every service test vends against.
struct ServiceFixture {
  ServiceFixture() : mgr(MeshShape::cube(2, 8)) {
    mgr.report_node_fault(dead);
    mgr.reconfigure();
  }
  RouteRequest request(NodeId src, NodeId dst, std::int64_t now) const {
    RouteRequest req;
    req.client_id = 1;
    req.src = src;
    req.dst = dst;
    req.submit_tick = now;
    req.rng_seed = 42;
    return req;
  }
  manager::MachineManager mgr;
  NodeId dead = 27;  // Point{3,3} on the 8x8
};

TEST(RouteService, VendsFreshRoutesAndTypesUnroutables) {
  ServiceFixture fx;
  RouteService svc(fx.mgr, ServiceOptions{}, /*now=*/0);
  const auto survivors = svc.table()->survivors();
  const auto ok = svc.submit(fx.request(survivors[0], survivors[9], 0), 0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, ServeStatus::kFresh);
  EXPECT_EQ(ok->epoch, 1);
  ASSERT_TRUE(ok->route.has_value());
  EXPECT_GT(ok->route->length(), 0);

  const auto bad = svc.submit(fx.request(survivors[0], fx.dead, 0), 0);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, ServeStatus::kUnroutable);
  EXPECT_FALSE(bad->route.has_value());

  const auto stats = svc.stats();
  EXPECT_EQ(stats.fresh, 1);
  EXPECT_EQ(stats.unroutable, 1);
  EXPECT_EQ(stats.submitted, 2);
}

TEST(RouteService, DegradationLadderStaleThenFallbackThenReject) {
  ServiceFixture fx;
  ServiceOptions options;
  options.staleness_cap = 2;
  RouteService svc(fx.mgr, options, /*now=*/0);
  const auto survivors = svc.table()->survivors();
  const NodeId src = survivors[0], dst = survivors[9];

  // Window opens: within the cap the stale epoch keeps serving.
  svc.begin_reconfigure(/*now=*/10);
  EXPECT_TRUE(svc.reconfiguring());
  const auto stale = svc.submit(fx.request(src, dst, 11), 11);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->status, ServeStatus::kStale);
  EXPECT_EQ(stale->stale_age, 1);
  ASSERT_TRUE(stale->route.has_value());

  // Past the cap the ladder drops to one-round dim-ordered routes from
  // the last certified epoch. (0,0)->(7,0): row 0 is clear of the dead
  // (3,3), so the e-cube path exists.
  const MeshShape& shape = svc.table()->shape();
  const auto fb = svc.submit(
      fx.request(shape.index(Point{0, 0}), shape.index(Point{7, 0}), 13), 13);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->status, ServeStatus::kFallback);
  ASSERT_TRUE(fb->route.has_value());
  EXPECT_EQ(fb->route->length(), 7);

  // (0,3)->(7,3): ascending dim order walks straight through the dead
  // (3,3), so the last rung has nothing to offer — typed reject.
  const auto rej = svc.submit(
      fx.request(shape.index(Point{0, 3}), shape.index(Point{7, 3}), 13), 13);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->status, ServeStatus::kRejected);

  // publish() closes the window and vends fresh from the new epoch.
  fx.mgr.report_node_fault(survivors[20]);
  fx.mgr.reconfigure();
  svc.publish(/*now=*/14);
  EXPECT_FALSE(svc.reconfiguring());
  const auto fresh = svc.submit(fx.request(src, dst, 15), 15);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->status, ServeStatus::kFresh);
  EXPECT_EQ(fresh->epoch, 2);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.stale, 1);
  EXPECT_EQ(stats.fallback, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.publishes, 2);  // constructor + explicit publish
}

// Escalated rounds certify the epoch: the table routes with the
// escalated orders, so the lamb guarantee holds at them. The table and
// the service's last certified table read the epoch record's one
// certification rule (which also types a covered-pair route failure
// kError, not kRejected).
TEST(RouteService, EscalatedEpochIsCertified) {
  ServiceFixture f;
  manager::Checkpoint cp = f.mgr.checkpoint();
  ASSERT_TRUE(f.mgr.history().back().solve_status == SolveStatus::kCertified);
  cp.orders.push_back(DimOrder::ascending(2));
  cp.history.back().solve_status = SolveStatus::kEscalated;
  cp.history.back().rounds = 3;
  f.mgr.restore(cp);
  RouteService svc(f.mgr, ServiceOptions{}, /*now=*/0);
  ASSERT_EQ(svc.table()->rounds(), 3);
  EXPECT_TRUE(svc.table()->certified());
  EXPECT_EQ(svc.last_certified(), svc.table());
}

// The fallback rung walks one e-cube path instead of flooding: for every
// ordered pair it must equal "dst is in src's ascending one-round flood"
// plus the ascending dimension-ordered hops on VC 0, with node faults and
// directed link faults, on a mesh and a torus.
TEST(RouteTable, DimOrderRouteMatchesOneRoundFlood) {
  for (const MeshShape& shape :
       {MeshShape::cube(2, 6), MeshShape::cube(3, 4), MeshShape::torus({5, 4})}) {
    SCOPED_TRACE(shape.to_string());
    // Restoring a hand-built epoch puts directed link faults (and a torus,
    // which the manager's solver does not handle) under a table.
    manager::MachineManager mgr(shape);
    manager::Checkpoint cp;
    cp.orders = ascending_rounds(shape.dim(), 2);
    cp.history.emplace_back();
    Rng frng(31);
    for (int i = 0; i < 3; ++i) {
      cp.node_faults.push_back((NodeId)frng.below((std::uint64_t)shape.size()));
    }
    for (int i = 0; i < 6; ++i) {
      const Point from =
          shape.point((NodeId)frng.below((std::uint64_t)shape.size()));
      const int dim = (int)frng.below((std::uint64_t)shape.dim());
      const Dir dir = frng.below(2) == 0 ? Dir::Pos : Dir::Neg;
      Point to;
      if (shape.neighbor(from, dim, dir, &to)) {
        cp.link_faults.push_back(LinkFault{from, dim, dir, false});
      }
    }
    mgr.restore(cp);
    ASSERT_GT(mgr.faults().num_link_faults(), 0);
    const auto table = serve::RouteTable::capture(mgr, /*published_tick=*/0);
    const DimOrder ascending = DimOrder::ascending(shape.dim());
    const FloodOracle flood(table->shape(), table->faults());
    int routed = 0;
    int blocked = 0;
    for (NodeId a = 0; a < shape.size(); ++a) {
      const Bits reach = flood.reach1_from(shape.point(a), ascending);
      EXPECT_FALSE(table->dim_order_route(a, a).has_value());
      for (NodeId b = 0; b < shape.size(); ++b) {
        if (a == b) continue;
        const auto route = table->dim_order_route(a, b);
        ASSERT_EQ(reach.test(b), route.has_value()) << a << " -> " << b;
        if (!route) {
          ++blocked;
          continue;
        }
        ++routed;
        std::vector<wormhole::Hop> want;
        for (const RouteSegment& seg : dim_ordered_route(
                 shape, shape.point(a), shape.point(b), ascending)) {
          want.insert(want.end(), (std::size_t)seg.steps,
                      wormhole::Hop{seg.dim, seg.dir, 0});
        }
        EXPECT_EQ(route->src, a);
        EXPECT_EQ(route->dst, b);
        EXPECT_TRUE(route->intermediates.empty());
        ASSERT_EQ(route->hops.size(), want.size());
        for (std::size_t h = 0; h < want.size(); ++h) {
          EXPECT_EQ(route->hops[h].dim, want[h].dim);
          EXPECT_EQ(route->hops[h].dir, want[h].dir);
          EXPECT_EQ(route->hops[h].vc, 0);
        }
      }
    }
    EXPECT_GT(routed, 0);
    EXPECT_GT(blocked, 0);
    EXPECT_FALSE(table->dim_order_route(-1, 0).has_value());
    EXPECT_FALSE(table->dim_order_route(0, shape.size()).has_value());
  }
}

TEST(RouteService, BoundedQueueShedsWithTypedRetryAfter) {
  ServiceFixture fx;
  ServiceOptions options;
  options.admission.shards = 1;
  options.admission.bucket_capacity = 1.0;
  options.admission.refill_per_tick = 1.0;
  options.admission.max_queue_depth = 2;
  RouteService svc(fx.mgr, options, /*now=*/0);
  const auto survivors = svc.table()->survivors();
  const auto req = [&](std::int64_t now) {
    return fx.request(survivors[0], survivors[5], now);
  };

  // Token -> served; then the bounded queue; then the typed shed.
  ASSERT_TRUE(svc.submit(req(0), 0).has_value());
  EXPECT_FALSE(svc.submit(req(0), 0).has_value());  // queued
  EXPECT_FALSE(svc.submit(req(0), 0).has_value());  // queued (depth 2)
  const auto shed = svc.submit(req(0), 0);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, ServeStatus::kOverloaded);
  EXPECT_GE(shed->retry_after_ticks, 1);
  EXPECT_EQ(svc.queue_depth(), 2);
  EXPECT_EQ(svc.stats().shed, 1);
  EXPECT_EQ(svc.stats().max_queue_depth, 2);

  // advance() drains one queued request per earned token, FIFO.
  const auto first = svc.advance(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].response.status, ServeStatus::kFresh);
  const auto second = svc.advance(2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(svc.queue_depth(), 0);
}

// Regression: a near-empty bucket with a trickle refill used to quote
// retry_after hints of thousands of ticks (the honest ticks_until the
// queue drains). The hint is now clamped to the admission window's
// retry_after_cap — a shed client re-probes within the window instead of
// parking for the whole drain estimate.
TEST(RouteService, RetryAfterHintIsClampedToTheAdmissionCap) {
  ServiceFixture fx;
  ServiceOptions options;
  options.admission.shards = 1;
  options.admission.bucket_capacity = 1.0;
  options.admission.refill_per_tick = 1.0 / 1024.0;  // ~2048-tick drain
  options.admission.max_queue_depth = 1;
  options.admission.retry_after_cap = 10;
  RouteService svc(fx.mgr, options, /*now=*/0);
  const auto survivors = svc.table()->survivors();
  ASSERT_TRUE(
      svc.submit(fx.request(survivors[0], survivors[5], 0), 0).has_value());
  EXPECT_FALSE(
      svc.submit(fx.request(survivors[1], survivors[6], 0), 0).has_value());
  const auto shed = svc.submit(fx.request(survivors[2], survivors[7], 0), 0);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, ServeStatus::kOverloaded);
  EXPECT_GE(shed->retry_after_ticks, 1);
  EXPECT_LE(shed->retry_after_ticks, 10);
}

TEST(RouteService, DeadlinesResolveWithoutSpendingTokens) {
  ServiceFixture fx;
  ServiceOptions options;
  options.admission.shards = 1;
  options.admission.bucket_capacity = 1.0;
  options.admission.refill_per_tick = 0.25;  // slow refill: queue lingers
  options.admission.max_queue_depth = 4;
  RouteService svc(fx.mgr, options, /*now=*/0);
  const auto survivors = svc.table()->survivors();

  // Already-expired submission short-circuits.
  RouteRequest late = fx.request(survivors[0], survivors[5], 5);
  late.deadline_tick = 3;
  const auto expired = svc.submit(late, 5);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->status, ServeStatus::kDeadline);

  // A queued request whose deadline passes resolves as kDeadline on the
  // next advance — without consuming the tick's token.
  ASSERT_TRUE(svc.submit(fx.request(survivors[0], survivors[5], 5), 5)
                  .has_value());  // drains the one token
  RouteRequest queued = fx.request(survivors[1], survivors[6], 5);
  queued.deadline_tick = 6;
  EXPECT_FALSE(svc.submit(queued, 5).has_value());
  const auto drained = svc.advance(9);  // one token earned by now
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].response.status, ServeStatus::kDeadline);
  EXPECT_EQ(svc.stats().deadline, 2);
}

// Four threads submit and read table() while this thread reports faults,
// opens reconfigure windows, reconfigures and publishes. Every answer must
// be a typed status, never kError; run under ThreadSanitizer this is the
// epoch-state race check.
TEST(RouteService, ConcurrentSubmitsWhileTheEpochChanges) {
  ServiceFixture fx;
  ServiceOptions options;
  options.admission.bucket_capacity = 1e9;  // serve every submit now
  RouteService svc(fx.mgr, options, /*now=*/0);

  std::atomic<int> errors{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(200 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        const auto survivors = svc.table()->survivors();
        RouteRequest req = fx.request(
            survivors[rng.below(survivors.size())],
            survivors[rng.below(survivors.size())], i);
        req.client_id = static_cast<std::uint64_t>(t);
        const auto response = svc.submit(req, i);
        if (!response.has_value()) continue;
        if (response->status == ServeStatus::kError) ++errors;
        if (serve::served(response->status)) ++served;
      }
    });
  }
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    NodeId victim;
    do {
      victim = static_cast<NodeId>(rng.below(64));
    } while (fx.mgr.faults().node_faulty(victim));
    svc.begin_reconfigure(2 * i);
    fx.mgr.report_node_fault(victim);
    fx.mgr.reconfigure();
    svc.publish(2 * i + 1);
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_FALSE(svc.reconfiguring());
  EXPECT_EQ(svc.table()->epoch(), 13);
  EXPECT_EQ(svc.stats().errors, 0);
}

TEST(ServeClient, RetriesWithBackoffUntilAttemptsExhaust) {
  ServiceFixture fx;
  ServiceOptions options;
  options.admission.shards = 2;
  options.admission.bucket_capacity = 0.0;
  options.admission.refill_per_tick = 0.0;
  options.admission.max_queue_depth = 0;  // every submission sheds
  RouteService svc(fx.mgr, options, /*now=*/0);

  ClientOptions copts;
  copts.issue_period = 1;
  copts.max_attempts = 3;
  copts.backoff_base = 2;
  copts.backoff_cap = 8;
  copts.jitter = 0.0;
  Client client(/*id=*/1, /*seed=*/99, copts, &svc);
  std::vector<Client::Outcome> outcomes;
  for (std::int64_t t = 0; t < 64 && outcomes.empty(); ++t) {
    client.step(t, &outcomes);
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, ServeStatus::kOverloaded);
  EXPECT_EQ(outcomes[0].attempts, 3);
  EXPECT_GT(outcomes[0].latency_ticks, 0);  // backoff delays accumulated
  EXPECT_TRUE(client.settled());
  EXPECT_EQ(svc.stats().shed, 3);
}

// A scripted Backend: every submit sheds, with a mild hint from the
// primary (shard -1) and a strict one from the hedge target. Records
// each submission's tick and shard so the test can see the client's
// actual schedule.
struct SheddingBackend : serve::Backend {
  explicit SheddingBackend(std::shared_ptr<const serve::RouteTable> table)
      : table(std::move(table)) {}
  std::optional<RouteResponse> submit(const RouteRequest& request,
                                      std::int64_t now) override {
    ticks.push_back(now);
    shards.push_back(request.shard);
    RouteResponse response;
    response.status = ServeStatus::kOverloaded;
    response.retry_after_ticks = request.shard >= 0 ? 9 : 3;
    return response;
  }
  std::shared_ptr<const serve::RouteTable> table_for(
      std::uint64_t) const override {
    return table;
  }
  int hedge_shard(const RouteRequest&) const override { return 1; }

  std::shared_ptr<const serve::RouteTable> table;
  std::vector<std::int64_t> ticks;
  std::vector<int> shards;
};

// When both the primary and the hedge shed, the client must honor the
// LARGER of the two retry_after hints — the strictest overloaded shard
// sets the pace, even though the hedge's hint arrived second and the
// exponential backoff alone would retry much sooner.
TEST(ServeClient, HonorsTheLargestRetryAfterAcrossPrimaryAndHedge) {
  ServiceFixture fx;
  RouteService svc(fx.mgr, ServiceOptions{}, /*now=*/0);
  SheddingBackend backend(svc.table());

  ClientOptions copts;
  copts.issue_period = 1;
  copts.max_attempts = 3;
  copts.backoff_base = 1;
  copts.backoff_cap = 4;  // backoff alone would retry at t=4 at most
  copts.jitter = 0.0;
  copts.hedge = true;
  Client client(/*id=*/1, /*seed=*/7, copts, &backend);
  std::vector<Client::Outcome> outcomes;
  for (std::int64_t t = 0; t < 32 && outcomes.empty(); ++t) {
    client.step(t, &outcomes);
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, ServeStatus::kOverloaded);
  EXPECT_EQ(outcomes[0].attempts, 3);
  // Attempt 1 (primary) and the hedge both land at t=0; the final
  // attempt waits out the hedge's stricter hint (9), not the capped
  // backoff (4) or the primary's milder hint (3).
  ASSERT_EQ(backend.ticks.size(), 3u);
  EXPECT_EQ(backend.ticks[0], 0);
  EXPECT_EQ(backend.ticks[1], 0);
  EXPECT_EQ(backend.ticks[2], 9);
  EXPECT_EQ(backend.shards[0], -1);
  EXPECT_EQ(backend.shards[1], 1);  // the hedge targeted hedge_shard()
  EXPECT_EQ(backend.shards[2], -1);
}

TEST(ServeClient, ServedRequestResolvesImmediatelyAndReissues) {
  ServiceFixture fx;
  RouteService svc(fx.mgr, ServiceOptions{}, /*now=*/0);
  ClientOptions copts;
  copts.issue_period = 4;
  Client client(/*id=*/7, /*seed=*/5, copts, &svc);
  std::vector<Client::Outcome> outcomes;
  for (std::int64_t t = 0; t < 12; ++t) client.step(t, &outcomes);
  ASSERT_GE(outcomes.size(), 2u);  // issue period 4 over 12 ticks
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kFresh);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_GT(outcome.route_length, 0);
  }
  EXPECT_EQ(outcomes[0].client, 7u);
  EXPECT_EQ(outcomes[1].seq, outcomes[0].seq + 1);
}

// The loadgen's headline guarantees, and the determinism anchor the CI
// serve-soak lane diffs: same config => same digest at any thread count.
TEST(Loadgen, DigestStableAcrossThreadCountsAndNoFailedRequests) {
  serve::LoadgenConfig config;
  config.mesh = "8x8";
  config.clients = 48;
  config.ticks = 64;
  config.initial_node_faults = 2;
  config.storm_node_kills = 3;
  config.storm_link_kills = 1;
  std::optional<serve::LoadgenResult> base;
  for (const int threads : {1, 4, 16}) {
    par::set_threads(threads);
    const serve::LoadgenResult result = serve::run_loadgen(config);
    EXPECT_EQ(result.failed_requests, 0) << "threads=" << threads;
    EXPECT_EQ(result.final_queue_depth, 0) << "threads=" << threads;
    EXPECT_GT(result.outcomes, 0);
    EXPECT_GT(result.reconfigures, 0);  // the storm forced epoch swaps
    if (!base) {
      base = result;
    } else {
      EXPECT_EQ(result.digest, base->digest) << "threads=" << threads;
      EXPECT_EQ(result.outcomes, base->outcomes);
      EXPECT_EQ(result.final_epoch, base->final_epoch);
    }
  }
  par::set_threads(0);
  // Served outcomes dominate this gentle scenario; every terminal status
  // is typed (the sums reconcile).
  EXPECT_EQ(base->outcomes,
            base->served_fresh + base->served_stale + base->served_fallback +
                base->gave_up_overloaded + base->gave_up_rejected +
                base->unroutable + base->deadline_exceeded + base->errors);
  EXPECT_GT(base->served_fresh, 0);
}

TEST(Loadgen, DeadlinesAndTightAdmissionStayTypedAndDrain) {
  serve::LoadgenConfig config;
  config.mesh = "8x8";
  config.clients = 96;
  config.ticks = 48;
  config.service.admission.shards = 2;
  config.service.admission.bucket_capacity = 4.0;
  config.service.admission.refill_per_tick = 2.0;
  config.service.admission.max_queue_depth = 4;
  config.client.deadline_ticks = 12;
  config.client.hedge = true;
  const serve::LoadgenResult result = serve::run_loadgen(config);
  EXPECT_EQ(result.failed_requests, 0);
  EXPECT_EQ(result.final_queue_depth, 0);
  // The overload has to show up somewhere typed: sheds at the response
  // level, and gave-up/deadline outcomes at the client level.
  EXPECT_GT(result.service.shed, 0);
  EXPECT_GT(result.gave_up_overloaded + result.deadline_exceeded, 0);
  // Bounded queues: the high-water mark respects the configured bound.
  EXPECT_LE(result.service.max_queue_depth,
            config.service.admission.shards *
                config.service.admission.max_queue_depth);
}

}  // namespace
}  // namespace lamb
