// Microbenchmarks for the performance-critical pieces whose costs Section
// 6 analyzes: Find-SES-Partition (O(d^3 f)), the prefix-sum reachability
// oracle (construction O(dN), queries O(d)) vs the O(dn) route walk, the
// word-parallel floods of FloodOracle, the saturating Boolean matrix
// product and the R-chain built on it, one incremental Find-Reachability
// step against the full one and its partition repairs against fresh
// partitions, Dinic on the WVC network, the full Lamb1
// pipeline scaling in f, and one served k = 2 vend (warm, cold, and
// through RouteService::submit).
//
// Every case is one row: a named operation timed in batches (sub-µs
// operations run many calls per batch, calibrated once), every row
// interleaved with every other rep by rep, each keeping its best batch as
// ns per call. `--only PREFIX` times just the rows whose name starts with
// PREFIX. With --json PATH the rows and the in-process ratio gates are
// written as a JSON document (BENCH_core.json): incremental reach over the
// full solve, the oracle query over the route walk, a served submit over
// the warm route pick it wraps, and the incremental result equal to the
// full one. No gate bounds an absolute time. Rows run
// at the process pool width; the bounds were set at width 1, so the
// document is written with `--threads 1`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/lamb.hpp"
#include "core/partition.hpp"
#include "core/reach_matrices.hpp"
#include "graph/bipartite_wvc.hpp"
#include "io/cli_args.hpp"
#include "manager/machine_manager.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/reach_oracle.hpp"
#include "reach/route.hpp"
#include "serve/route_service.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "wormhole/route_cache.hpp"

using namespace lamb;

namespace {

// Interleaved rounds per row, and the wall time a calibrated batch aims
// for: long enough that timer and scheduler granularity stay small
// against it, short enough that a full run stays well under a minute.
constexpr int kReps = 15;
constexpr double kBatchSeconds = 0.005;

// Keeps the compiler from discarding a result the timed loop computes.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

FaultSet make_faults(const MeshShape& shape, std::int64_t f,
                     std::uint64_t seed) {
  Rng rng(seed);
  return FaultSet::random_nodes(shape, f, rng);
}

Point random_point(const MeshShape& shape, Rng& rng) {
  return shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
}

// A mesh with `f` random node faults.
struct Faulted {
  MeshShape shape;
  FaultSet faults;

  Faulted(MeshShape s, std::int64_t f, std::uint64_t seed)
      : shape(std::move(s)), faults(make_faults(shape, f, seed)) {}
  Faulted(const Faulted&) = delete;  // faults points at shape
};

std::shared_ptr<const Faulted> faulted(MeshShape shape, std::int64_t f,
                                       std::uint64_t seed) {
  return std::make_shared<const Faulted>(std::move(shape), f, seed);
}

// Flood inputs: case 0 is M_3(16) with 4% node faults plus 40 link
// faults, half of them directed; case 1 is M_2(32) with 5% node faults;
// case 2 is the torus T_3(16) with the faults of case 0, whose levels
// have a wrap part and so read a snapshot.
MeshShape flood_shape(int which) {
  if (which == 1) return MeshShape::cube(2, 32);
  const std::vector<Coord> widths{16, 16, 16};
  return which == 0 ? MeshShape::mesh(widths) : MeshShape::torus(widths);
}

FaultSet flood_faults(const MeshShape& shape, int which) {
  FaultSet faults = make_faults(shape, which == 1 ? 51 : 164, 5);
  Rng rng(6);
  for (int added = 0; which != 1 && added < 40;) {
    const Point from = random_point(shape, rng);
    const int dim = (int)rng.below((std::uint64_t)shape.dim());
    const Dir dir = rng.bernoulli(0.5) ? Dir::Pos : Dir::Neg;
    Point to;
    if (!shape.neighbor(from, dim, dir, &to)) continue;
    if (added % 2 == 0) {
      faults.add_link(from, dim, dir);
    } else {
      faults.add_directed_link(from, dim, dir);
    }
    ++added;
  }
  return faults;
}

struct FloodCase {
  MeshShape shape;
  FaultSet faults;
  FloodOracle oracle;
  std::vector<Point> good;  // flood endpoints, cycled through

  explicit FloodCase(int which)
      : shape(flood_shape(which)),
        faults(flood_faults(shape, which)),
        oracle(shape, faults) {
    for (NodeId id = 0; id < shape.size(); ++id) {
      if (faults.node_good(id)) good.push_back(shape.point(id));
    }
  }
  FloodCase(const FloodCase&) = delete;  // faults points at shape
};

// Random square factors: a at `density`, b at the paper's R density
// (~0.17).
std::pair<BitMatrix, BitMatrix> random_factors(std::int64_t m,
                                               double density,
                                               std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix a(m, m), b(m, m);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      if (rng.bernoulli(density)) a.set(i, j);
      if (rng.bernoulli(0.17)) b.set(i, j);
    }
  }
  return {std::move(a), std::move(b)};
}

// The factors R_t and I_t of one full run at k = 2.
struct ChainCase : Faulted {
  ReachComputation reach;

  ChainCase(int dim, Coord width, std::int64_t f)
      : Faulted(MeshShape::cube(dim, width), f, 13) {
    reach = compute_reachability(shape, faults, ascending_rounds(dim, 2));
  }
};

// A min-weight vertex cover instance: `side` + `side` vertices of weight
// 1..50, each edge present with probability 0.1.
struct WvcCase {
  std::vector<double> lw, rw;
  std::vector<BipartiteEdge> edges;

  explicit WvcCase(int side) : lw((std::size_t)side), rw((std::size_t)side) {
    Rng rng(8);
    for (auto& w : lw) w = (double)(1 + rng.below(50));
    for (auto& w : rw) w = (double)(1 + rng.below(50));
    for (int i = 0; i < side; ++i) {
      for (int j = 0; j < side; ++j) {
        if (rng.bernoulli(0.1)) edges.push_back({i, j});
      }
    }
  }
};

// The solver's reach layer on one incremental reconfigure: M_3(16) with
// 4% node faults and k = 2, solved once in full, then one new node fault
// or one new bidirectional link fault applied to that solve's factors by
// compute_reachability_incremental. The delta is the first random
// candidate the call accepts (one whose partition repair does not bail).
struct ReachDeltaCase {
  MeshShape shape;
  MultiRoundOrder orders;
  FaultSet before;
  FaultSet after;
  ReachComputation reach;
  std::vector<Point> delta_nodes;
  std::vector<LinkFault> delta_links;

  explicit ReachDeltaCase(bool link)
      : shape(MeshShape::cube(3, 16)),
        orders(ascending_rounds(3, 2)),
        before(make_faults(shape, 164, 11)),
        after(before) {
    reach = compute_reachability(shape, before, orders);
    Rng rng(12);
    for (;;) {
      const Point p = random_point(shape, rng);
      Point nb = p;
      nb[0] += 1;
      if (before.node_faulty(p) || (link && nb[0] >= shape.width(0)) ||
          (link && before.node_faulty(nb))) {
        continue;
      }
      delta_nodes.clear();
      delta_links.clear();
      if (link) {
        delta_links.push_back(LinkFault{p, 0, Dir::Pos, true});
      } else {
        delta_nodes.push_back(p);
      }
      after = before;
      for (const Point& q : delta_nodes) after.add_node(q);
      for (const LinkFault& lf : delta_links) after.add(lf);
      if (step()) return;
    }
  }
  ReachDeltaCase(const ReachDeltaCase&) = delete;  // faults point at shape

  bool step(ReachComputation* result = nullptr) const {
    ReachComputation out;
    ReachDelta delta;
    const bool ok = compute_reachability_incremental(
        shape, after, orders, delta_nodes, delta_links, reach, &out, &delta);
    if (result != nullptr) *result = std::move(out);
    return ok;
  }
  // The full solve of the same fault set.
  ReachComputation full() const {
    return compute_reachability(shape, after, orders);
  }
  // The layer-1 work of each: the full run's SES + DES partitions of the
  // new fault set, and the step's two repairs of the previous ones (k = 2
  // ascending has one distinct ordering).
  std::int64_t partitions() const {
    PartitionSpans ses_spans;
    PartitionSpans des_spans;
    return find_ses_partition(shape, after, orders[0], &ses_spans).size() +
           find_des_partition(shape, after, orders[0], &des_spans).size();
  }
  std::int64_t repairs() const {
    std::int64_t cells = 0;
    for (const bool des : {false, true}) {
      const std::optional<PartitionRepair> rep = repair_partition(
          shape, after, delta_nodes, delta_links, orders[0], des,
          des ? reach.des[0] : reach.ses[0],
          des ? reach.des_spans[0] : reach.ses_spans[0]);
      cells += rep ? rep->partition.size() : -1;
    }
    return cells;
  }
  bool incremental_equals_full() const {
    ReachComputation inc;
    return step(&inc) && inc.rk == full().rk;
  }
};

// The served read path on M_3(16) with 4% random node faults (seed 14):
// a manager configured on them, a RouteService over it with admission
// wide open, and 64 pairs cycled through from a pool of 64 random
// survivors. Before timing, every pair is routed once through `warm` and
// submitted once, so both floods of every pair are cached in `warm` and
// in the service's table.
struct VendCase {
  manager::MachineManager manager;
  std::unique_ptr<serve::RouteService> service;
  std::unique_ptr<wormhole::RouteCache> warm;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::int64_t now = 0;

  VendCase() : manager(MeshShape::cube(3, 16)) {
    const MeshShape& shape = manager.shape();
    Rng rng(14);
    for (const std::int64_t id :
         sample_without_replacement(shape.size(), 164, rng)) {
      manager.report_node_fault(id);
    }
    manager.reconfigure();
    const std::vector<NodeId> survivors = manager.survivors();
    std::vector<NodeId> pool;
    for (const std::int64_t i : sample_without_replacement(
             static_cast<std::int64_t>(survivors.size()), 64, rng)) {
      pool.push_back(survivors[static_cast<std::size_t>(i)]);
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pairs.push_back({pool[i], pool[(i * 7 + 1) % pool.size()]});
    }
    serve::ServiceOptions options;
    options.admission.shards = 1;
    options.admission.bucket_capacity = 1e18;
    options.admission.refill_per_tick = 1e18;
    service = std::make_unique<serve::RouteService>(manager, options);
    warm = std::make_unique<wormhole::RouteCache>(manager.snapshot(),
                                                  manager.orders());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      route(*warm, i);
      submit(i);
    }
  }
  VendCase(const VendCase&) = delete;  // the service holds the manager

  std::optional<wormhole::Route> route(wormhole::RouteCache& cache,
                                       std::size_t i) const {
    Rng rng(i);
    return cache.build(pairs[i].first, pairs[i].second, rng);
  }
  std::optional<serve::RouteResponse> submit(std::size_t i) {
    serve::RouteRequest request;
    request.src = pairs[i].first;
    request.dst = pairs[i].second;
    request.rng_seed = i;
    return service->submit(request, ++now);
  }
};

// One row: `run(n)` performs the timed operation n times.
struct Case {
  std::string name;
  std::function<void(std::int64_t)> run;
  std::int64_t batch = 1;  // calls per timed rep
  double ns_per_op = std::numeric_limits<double>::quiet_NaN();
};

struct Suite {
  std::vector<Case> cases;
  std::vector<std::pair<const char*, const char*>> workloads;
  bool incremental_equivalent = false;

  void family(const char* name, const char* workload) {
    workloads.push_back({name, workload});
  }
  // Adds a row timing `op()`, whose result is kept from the optimizer.
  template <class Op>
  void add(std::string name, Op op) {
    cases.push_back({std::move(name), [op](std::int64_t n) mutable {
                       for (std::int64_t i = 0; i < n; ++i) keep(op());
                     }});
  }
  double ns(const std::string& name) const {
    for (const Case& c : cases) {
      if (c.name == name) return c.ns_per_op;
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
};

double time_batch(const Case& c, std::int64_t n) {
  Stopwatch watch;
  c.run(n);
  return watch.seconds();
}

// Grows the batch eightfold until it takes an eighth of kBatchSeconds,
// then scales it to kBatchSeconds; an operation slower than that runs
// once per rep.
std::int64_t calibrate(const Case& c) {
  std::int64_t n = 1;
  for (;;) {
    const double t = time_batch(c, n);
    if (t >= kBatchSeconds / 8 || n >= (std::int64_t{1} << 30)) {
      return std::max<std::int64_t>(
          1, std::llround(static_cast<double>(n) * kBatchSeconds /
                          std::max(t, 1e-9)));
    }
    n *= 8;
  }
}

void add_cases(Suite& s) {
  s.family("FindSesPartition3D",
           "M_3(32), f random node faults (seed 1), ascending order");
  for (const std::int64_t f : {32, 64, 512, 1024}) {
    const auto m = faulted(MeshShape::cube(3, 32), f, 1);
    s.add("FindSesPartition3D/" + std::to_string(f), [m] {
      return find_ses_partition(m->shape, m->faults, DimOrder::ascending(3));
    });
  }

  s.family("ReachOracleBuild", "M_3(n), 2% random node faults (seed 2)");
  for (const Coord width : {16, 32}) {
    const MeshShape shape = MeshShape::cube(3, width);
    const auto m = faulted(shape, shape.size() / 50, 2);
    s.add("ReachOracleBuild/" + std::to_string(width),
          [m] { return ReachOracle(m->shape, m->faults); });
  }

  // The oracle query and the O(dn) route walk it replaces, on random
  // pairs (drawing and decoding the pair is part of both).
  s.family("ReachOracleQuery",
           "M_3(32), 983 random node faults (seed 3), random pairs");
  s.family("RouteWalkQuery",
           "M_3(32), 983 random node faults (seed 3), random pairs");
  {
    const auto m = faulted(MeshShape::cube(3, 32), 983, 3);
    auto oracle = std::make_shared<const ReachOracle>(m->shape, m->faults);
    const DimOrder order = DimOrder::ascending(3);
    s.add("ReachOracleQuery", [m, oracle, order, rng = Rng(4)]() mutable {
      const Point v = random_point(m->shape, rng);
      const Point w = random_point(m->shape, rng);
      return oracle->reach1(v, w, order);
    });
    s.add("RouteWalkQuery", [m, order, rng = Rng(5)]() mutable {
      const Point v = random_point(m->shape, rng);
      const Point w = random_point(m->shape, rng);
      return route_clear(m->shape, m->faults, v, w, order);
    });
  }

  s.family("FloodOracleBuild",
           "/0 M_3(16), 4% node faults (seed 5) + 40 link faults (seed 6), "
           "half directed; /1 M_2(32), 5% node faults (seed 5)");
  s.family("FloodReach1Forward",
           "floods of /0, /1 and /2 (T_3(16) with the faults of /0), "
           "ascending order");
  s.family("FloodReach1Descending",
           "floods of /0, /1, /2, descending: the worst single-source "
           "order");
  s.family("FloodReach1Backward", "floods of /0, /1, /2, ascending order");
  s.family("FloodReachK2", "floods of /0, /1, two ascending rounds");
  std::shared_ptr<const FloodCase> floods[3];
  for (int w = 0; w < 3; ++w) floods[w] = std::make_shared<const FloodCase>(w);
  for (int w = 0; w < 2; ++w) {
    s.add("FloodOracleBuild/" + std::to_string(w),
          [c = floods[w]] { return FloodOracle(c->shape, c->faults); });
  }
  // One flood per call, `flood(oracle, endpoint)`, cycling through the
  // good nodes as endpoints.
  const auto add_flood = [&](const char* name, int w, auto flood) {
    s.add(std::string(name) + "/" + std::to_string(w),
          [c = floods[w], flood, i = std::size_t{0}]() mutable {
            const Point& p = c->good[i];
            i = (i + 1) % c->good.size();
            return flood(c->oracle, p);
          });
  };
  for (int w = 0; w < 3; ++w) {
    const DimOrder order = DimOrder::ascending(floods[w]->shape.dim());
    add_flood("FloodReach1Forward", w,
              [order](const FloodOracle& o, const Point& p) {
                return o.reach1_from(p, order);
              });
  }
  for (int w = 0; w < 3; ++w) {
    const DimOrder order = DimOrder::descending(floods[w]->shape.dim());
    add_flood("FloodReach1Descending", w,
              [order](const FloodOracle& o, const Point& p) {
                return o.reach1_from(p, order);
              });
  }
  for (int w = 0; w < 3; ++w) {
    const DimOrder order = DimOrder::ascending(floods[w]->shape.dim());
    add_flood("FloodReach1Backward", w,
              [order](const FloodOracle& o, const Point& p) {
                return o.reach1_to(p, order);
              });
  }
  for (int w = 0; w < 2; ++w) {
    const MultiRoundOrder orders =
        ascending_rounds(floods[w]->shape.dim(), 2);
    add_flood("FloodReachK2", w,
              [orders](const FloodOracle& o, const Point& p) {
                return o.reach_from(p, orders);
              });
  }

  // Each output row has ~0.17 m set bits to visit but fills after a few
  // dozen ORs, where the saturating kernel stops it.
  s.family("BitMatrixMultiply",
           "m x m random factors, both at the paper's R density 0.17 "
           "(seed 6)");
  for (const std::int64_t m : {256, 512, 2048}) {
    auto ab = std::make_shared<const std::pair<BitMatrix, BitMatrix>>(
        random_factors(m, 0.17, 6));
    s.add("BitMatrixMultiply/" + std::to_string(m),
          [ab] { return BitMatrix::multiply(ab->first, ab->second); });
  }
  // A sparse left factor (the intersection matrix I, density ~0.01)
  // visits proportionally fewer b-rows; at the lowest densities no output
  // row fills, so nothing stops early.
  s.family("SparseLeftMultiply",
           "1024 x 1024; left factor at density arg/1000, right at 0.17 "
           "(seed 7)");
  for (const int permille : {10, 100, 500}) {
    auto ab = std::make_shared<const std::pair<BitMatrix, BitMatrix>>(
        random_factors(1024, permille / 1000.0, 7));
    s.add("SparseLeftMultiply/" + std::to_string(permille),
          [ab] { return BitMatrix::multiply(ab->first, ab->second); });
  }

  s.family("ReachChain",
           "reach_chain alone on one full run's k = 2 factors: /0 M_3(16) 4%, "
           "/1 M_2(181) 1.5%, /2 M_3(32) 2% (seed 13)");
  const std::shared_ptr<const ChainCase> chains[] = {
      std::make_shared<const ChainCase>(3, 16, 164),
      std::make_shared<const ChainCase>(2, 181, 491),
      std::make_shared<const ChainCase>(3, 32, 655)};
  for (int w = 0; w < 3; ++w) {
    s.add("ReachChain/" + std::to_string(w), [c = chains[w]] {
      return reach_chain(c->reach.r, c->reach.inters, c->reach.round_part);
    });
  }

  s.family("ReachIncrementalNode",
           "M_3(16), 164 node faults (seed 11), k = 2, one new node fault");
  s.family("ReachIncrementalLink",
           "M_3(16), 164 node faults (seed 11), k = 2, one new "
           "bidirectional link fault");
  s.family("ReachFull",
           "the full Find-Reachability of the ReachIncrementalNode fault "
           "set");
  auto node_delta = std::make_shared<const ReachDeltaCase>(/*link=*/false);
  auto link_delta = std::make_shared<const ReachDeltaCase>(/*link=*/true);
  s.incremental_equivalent = node_delta->incremental_equals_full() &&
                             link_delta->incremental_equals_full();
  s.add("ReachIncrementalNode", [node_delta] { return node_delta->step(); });
  s.add("ReachIncrementalLink", [link_delta] { return link_delta->step(); });
  s.add("ReachFull", [node_delta] { return node_delta->full(); });

  s.family("PartitionFull",
           "SES + DES partitions of the ReachIncrementalNode fault set");
  s.family("PartitionRepairNode",
           "the SES and DES repairs of the ReachIncrementalNode delta");
  s.family("PartitionRepairLink",
           "the SES and DES repairs of the ReachIncrementalLink delta");
  s.add("PartitionFull", [node_delta] { return node_delta->partitions(); });
  s.add("PartitionRepairNode",
        [node_delta] { return node_delta->repairs(); });
  s.add("PartitionRepairLink",
        [link_delta] { return link_delta->repairs(); });

  s.family("BipartiteWvc",
           "n + n vertices, weights 1..50, edge probability 0.1 (seed 8)");
  for (const int side : {32, 128, 512}) {
    auto g = std::make_shared<const WvcCase>(side);
    s.add("BipartiteWvc/" + std::to_string(side),
          [g] { return min_weight_bipartite_cover(g->lw, g->rw, g->edges); });
  }

  // One served vend three ways: the route picker on a warm cache (both
  // floods memoised, so the k = 2 intermediate scan and the hops), the
  // same on a cold cache (flood oracle build and both floods first), and
  // RouteService::submit on a warm table (admission, the serving ladder,
  // counters and SLOs around the same warm pick).
  s.family("VendHit",
           "RouteCache::build, 64 warm survivor pairs of M_3(16) with 164 "
           "random node faults (seed 14), k = 2");
  s.family("VendMiss", "VendHit's pairs on a fresh RouteCache per call");
  s.family("ServeSubmitHit",
           "RouteService::submit of VendHit's pairs on a warm table, "
           "admission wide open");
  auto vend = std::make_shared<VendCase>();
  s.add("VendHit", [vend, i = std::size_t{0}]() mutable {
    i = (i + 1) % vend->pairs.size();
    return vend->route(*vend->warm, i);
  });
  s.add("VendMiss", [vend, i = std::size_t{0}]() mutable {
    i = (i + 1) % vend->pairs.size();
    wormhole::RouteCache cold(vend->manager.snapshot(),
                              vend->manager.orders());
    return vend->route(cold, i);
  });
  s.add("ServeSubmitHit", [vend, i = std::size_t{0}]() mutable {
    i = (i + 1) % vend->pairs.size();
    return vend->submit(i);
  });

  s.family("Lamb1FullPipeline3D",
           "lamb1 on M_3(32), f random node faults (seed 9)");
  for (const std::int64_t f : {64, 128, 256, 512, 1024}) {
    const auto m = faulted(MeshShape::cube(3, 32), f, 9);
    s.add("Lamb1FullPipeline3D/" + std::to_string(f),
          [m] { return lamb1(m->shape, m->faults, {}); });
  }
  s.family("Lamb1FullPipeline2D",
           "lamb1 on M_2(181), f random node faults (seed 10)");
  for (const std::int64_t f : {164, 491, 983}) {
    const auto m = faulted(MeshShape::cube(2, 181), f, 10);
    s.add("Lamb1FullPipeline2D/" + std::to_string(f),
          [m] { return lamb1(m->shape, m->faults, {}); });
  }
}

double ratio(double a, double b) {
  return b > 0 ? a / b : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {
      io::kJsonFlag,
      {"only", "PREFIX", io::kAllCommands,
       "time only the rows whose name starts with PREFIX"}};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const std::string json_path = args.get("json");
  const std::string only = args.get("only");

  Suite suite;
  add_cases(suite);
  std::vector<Case*> timed;
  for (Case& c : suite.cases) {
    if (c.name.starts_with(only)) timed.push_back(&c);
  }
  if (timed.empty()) {
    std::fprintf(stderr, "error: no row starts with '%s'\n", only.c_str());
    return 2;
  }
  std::printf("micro_core: %zu rows, best of %d interleaved reps, pool "
              "width %d\n\n",
              timed.size(), kReps, par::threads());

  for (Case* c : timed) c->batch = calibrate(*c);
  const std::vector<double> best =
      best_of_interleaved(kReps, timed.size(), [&](std::size_t v) {
        return time_batch(*timed[v], timed[v]->batch);
      });
  for (std::size_t v = 0; v < timed.size(); ++v) {
    Case& c = *timed[v];
    c.ns_per_op = best[v] * 1e9 / static_cast<double>(c.batch);
    std::printf("  %-28s %14.1f ns/op  (batch %lld)\n", c.name.c_str(),
                c.ns_per_op, static_cast<long long>(c.batch));
  }

  // The gated figures: ratios of rows timed interleaved in this process,
  // and the incremental solves' equality with the full one. A ratio whose
  // rows --only skipped is null, so its gate fails rather than passes.
  const double node_over_full =
      ratio(suite.ns("ReachIncrementalNode"), suite.ns("ReachFull"));
  const double link_over_full =
      ratio(suite.ns("ReachIncrementalLink"), suite.ns("ReachFull"));
  const double query_over_walk =
      ratio(suite.ns("ReachOracleQuery"), suite.ns("RouteWalkQuery"));
  const double submit_over_hit =
      ratio(suite.ns("ServeSubmitHit"), suite.ns("VendHit"));
  const bool equivalent = suite.incremental_equivalent;
  std::printf("\n  incremental node / full reach: %.4f\n"
              "  incremental link / full reach: %.4f\n"
              "  oracle query / route walk:     %.4f\n"
              "  serve submit / route hit:      %.4f\n"
              "  incremental rk == full rk:     %s\n",
              node_over_full, link_over_full, query_over_walk,
              submit_over_hit, equivalent ? "yes" : "NO");

  if (!json_path.empty()) {
    support::BenchDoc doc("bench", "micro_core");
    doc.object("workloads");
    for (const auto& [name, workload] : suite.workloads) {
      doc.field(name, workload);
    }
    doc.end()
        .fields({{"threads", par::threads()},
                 {"reps", kReps},
                 {"batch_seconds", kBatchSeconds},
                 {"reach_incremental_node_over_full", node_over_full},
                 {"reach_incremental_link_over_full", link_over_full},
                 {"reach_oracle_query_over_route_walk", query_over_walk},
                 {"serve_submit_over_route_hit", submit_over_hit},
                 {"incremental_equivalent", equivalent ? 1 : 0}})
        .array("results");
    for (const Case* c : timed) {
      doc.record({{"case", c->name},
                  {"ns_per_op", c->ns_per_op},
                  {"batch", c->batch}});
    }
    doc.end();
    // Each bound is twice the largest of six width-1 runs on a shared
    // 4-vCPU x86-64 host (node 0.048-0.060, link 0.047-0.051, query
    // 0.124-0.142, submit 1.06-1.52): room for another host's caches,
    // while an incremental step that lost its reuse (a full solve is ~17x
    // one), an oracle query that fell back to walking, or a submit whose
    // ladder costs more than the warm route it wraps (a flood miss is ~8x
    // a hit) fails.
    doc.gate_max("reach_incremental_node_over_full", 0.12)
        .gate_max("reach_incremental_link_over_full", 0.10)
        .gate_max("reach_oracle_query_over_route_walk", 0.28)
        .gate_max("serve_submit_over_route_hit", 3.0)
        .gate_equals("incremental_equivalent", 1)
        .write(json_path);
  }
  return equivalent ? 0 : 1;
}
