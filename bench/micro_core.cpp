// Microbenchmarks (google-benchmark) for the performance-critical pieces
// whose costs Section 6 analyzes: Find-SES-Partition (O(d^3 f)), the
// prefix-sum reachability oracle (construction O(dN), queries O(d)) vs
// the O(dn) route walk, the word-parallel floods of FloodOracle, the
// saturating Boolean matrix product and the R-chain built on it, one
// incremental Find-Reachability step, Dinic on the WVC network, and the
// full Lamb1 pipeline scaling in f.
#include <benchmark/benchmark.h>

#include "core/bit_matrix.hpp"
#include "core/lamb.hpp"
#include "core/partition.hpp"
#include "core/reach_matrices.hpp"
#include "graph/bipartite_wvc.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/reach_oracle.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

FaultSet make_faults(const MeshShape& shape, std::int64_t f, std::uint64_t seed) {
  Rng rng(seed);
  return FaultSet::random_nodes(shape, f, rng);
}

void BM_FindSesPartition3D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        find_ses_partition(shape, faults, DimOrder::ascending(3)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindSesPartition3D)->Range(32, 1024)->Complexity(benchmark::oN);

void BM_ReachOracleBuild(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, (Coord)state.range(0));
  const FaultSet faults = make_faults(shape, shape.size() / 50, 2);
  for (auto _ : state) {
    ReachOracle oracle(shape, faults);
    benchmark::DoNotOptimize(oracle);
  }
}
BENCHMARK(BM_ReachOracleBuild)->Arg(16)->Arg(32);

void BM_ReachOracleQuery(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, 983, 3);
  const ReachOracle oracle(shape, faults);
  Rng rng(4);
  const DimOrder order = DimOrder::ascending(3);
  for (auto _ : state) {
    const Point v = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    const Point w = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    benchmark::DoNotOptimize(oracle.reach1(v, w, order));
  }
}
BENCHMARK(BM_ReachOracleQuery);

void BM_RouteWalkQuery(benchmark::State& state) {
  // The O(dn) reference the oracle replaces.
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, 983, 3);
  Rng rng(5);
  const DimOrder order = DimOrder::ascending(3);
  for (auto _ : state) {
    const Point v = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    const Point w = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    benchmark::DoNotOptimize(route_clear(shape, faults, v, w, order));
  }
}
BENCHMARK(BM_RouteWalkQuery);

// Flood inputs: Arg 0 is M_3(16) with 4% node faults plus 40 link
// faults, half of them directed; Arg 1 is M_2(32) with 5% node faults;
// Arg 2 is the torus T_3(16) with the faults of Arg 0, whose levels have
// a wrap part and so read a snapshot.
MeshShape flood_shape(std::int64_t which) {
  if (which == 1) return MeshShape::cube(2, 32);
  const std::vector<Coord> widths{16, 16, 16};
  return which == 0 ? MeshShape::mesh(widths) : MeshShape::torus(widths);
}

struct FloodCase {
  MeshShape shape;
  FaultSet faults;

  explicit FloodCase(std::int64_t which)
      : shape(flood_shape(which)),
        faults(make_faults(shape, which == 1 ? 51 : 164, 5)) {
    Rng rng(6);
    for (int added = 0; which != 1 && added < 40;) {
      const Point from =
          shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
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
  }
  FloodCase(const FloodCase&) = delete;  // faults points at shape

  // Good nodes, to cycle through as flood endpoints.
  std::vector<Point> good_points() const {
    std::vector<Point> out;
    for (NodeId id = 0; id < shape.size(); ++id) {
      if (faults.node_good(id)) out.push_back(shape.point(id));
    }
    return out;
  }
};

void BM_FloodOracleBuild(benchmark::State& state) {
  const FloodCase c(state.range(0));
  for (auto _ : state) {
    FloodOracle oracle(c.shape, c.faults);
    benchmark::DoNotOptimize(oracle);
  }
}
BENCHMARK(BM_FloodOracleBuild)->Arg(0)->Arg(1);

// One forward flood per iteration, cycling through the good nodes.
void flood_forward(benchmark::State& state, const DimOrder& order) {
  const FloodCase c(state.range(0));
  const FloodOracle oracle(c.shape, c.faults);
  const std::vector<Point> points = c.good_points();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.reach1_from(points[i], order));
    i = (i + 1) % points.size();
  }
}

void BM_FloodReach1Forward(benchmark::State& state) {
  flood_forward(state, DimOrder::ascending(flood_shape(state.range(0)).dim()));
}
BENCHMARK(BM_FloodReach1Forward)->Arg(0)->Arg(1)->Arg(2);

// The worst single-source order: the first dimension routed is the one at
// the largest stride, so the frontier spans the most words from the first
// dimension on.
void BM_FloodReach1Descending(benchmark::State& state) {
  flood_forward(state,
                DimOrder::descending(flood_shape(state.range(0)).dim()));
}
BENCHMARK(BM_FloodReach1Descending)->Arg(0)->Arg(1)->Arg(2);

void BM_FloodReach1Backward(benchmark::State& state) {
  const FloodCase c(state.range(0));
  const FloodOracle oracle(c.shape, c.faults);
  const std::vector<Point> points = c.good_points();
  const DimOrder order = DimOrder::ascending(c.shape.dim());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.reach1_to(points[i], order));
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_FloodReach1Backward)->Arg(0)->Arg(1)->Arg(2);

void BM_FloodReachK2(benchmark::State& state) {
  const FloodCase c(state.range(0));
  const FloodOracle oracle(c.shape, c.faults);
  const std::vector<Point> points = c.good_points();
  const MultiRoundOrder orders = ascending_rounds(c.shape.dim(), 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.reach_from(points[i], orders));
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_FloodReachK2)->Arg(0)->Arg(1);

// Dense random square factors at the paper's R density: each output row
// has ~0.17 m set bits to visit but fills after a few dozen ORs, where the
// saturating kernel stops it.
void BM_BitMatrixMultiply(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  Rng rng(6);
  BitMatrix a(m, m), b(m, m);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      if (rng.bernoulli(0.17)) a.set(i, j);  // paper's R density ~0.175
      if (rng.bernoulli(0.17)) b.set(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitMatrix::multiply(a, b));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_BitMatrixMultiply)->Range(256, 2048)->Complexity(benchmark::oNCubed);

void BM_SparseLeftMultiply(benchmark::State& state) {
  // Sparse left factor (the intersection matrix I, density ~0.01): the
  // set-bit loop visits proportionally fewer b-rows; at the lowest
  // densities no output row fills, so nothing stops early.
  const std::int64_t m = 1024;
  Rng rng(7);
  BitMatrix a(m, m), b(m, m);
  const double density = (double)state.range(0) / 1000.0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      if (rng.bernoulli(density)) a.set(i, j);
      if (rng.bernoulli(0.17)) b.set(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitMatrix::multiply(a, b));
  }
}
BENCHMARK(BM_SparseLeftMultiply)->Arg(10)->Arg(100)->Arg(500);

// The R-chain alone (reach_chain, right to left) on the factors R_t and
// I_t captured from one full matrix-backend run at k = 2: Arg 0 is M_3(16)
// with 4% node faults (the pipebench geometry), Arg 1 M_2(181) with 1.5%
// and Arg 2 M_3(32) with 2%.
void BM_ReachChain(benchmark::State& state) {
  struct Case {
    int dim;
    Coord width;
    std::int64_t faults;
  };
  constexpr Case kCases[] = {{3, 16, 164}, {2, 181, 491}, {3, 32, 655}};
  const Case& c = kCases[state.range(0)];
  const MeshShape shape = MeshShape::cube(c.dim, c.width);
  const FaultSet faults = make_faults(shape, c.faults, 13);
  ReachCapture cap;
  const ReachComputation reach =
      compute_reachability(shape, faults, ascending_rounds(c.dim, 2),
                           ReachBackend::kMatrix, &cap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reach_chain(cap.r, cap.inters, reach.round_part));
  }
}
BENCHMARK(BM_ReachChain)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// The solver's reach layer on one incremental reconfigure: M_3(16) with
// 4% node faults and k = 2, captured once, then one new node fault or one
// new bidirectional link fault applied to the captured matrices by
// compute_reachability_incremental. The delta is the first random
// candidate the call accepts (one whose partition repair does not bail).
struct ReachDeltaCase {
  MeshShape shape;
  MultiRoundOrder orders;
  FaultSet before;
  FaultSet after;
  ReachComputation reach;
  ReachCapture cap;
  std::vector<Point> delta_nodes;
  std::vector<LinkFault> delta_links;

  explicit ReachDeltaCase(bool link)
      : shape(MeshShape::cube(3, 16)),
        orders(ascending_rounds(3, 2)),
        before(make_faults(shape, 164, 11)),
        after(before) {
    reach = compute_reachability(shape, before, orders, ReachBackend::kMatrix,
                                 &cap);
    Rng rng(12);
    for (;;) {
      const Point p =
          shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
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

  bool step() const {
    ReachComputation out;
    ReachCapture out_cap;
    ReachDelta delta;
    return compute_reachability_incremental(shape, after, orders, delta_nodes,
                                            delta_links, reach, cap, &out,
                                            &out_cap, &delta);
  }
};

void BM_ReachIncrementalNode(benchmark::State& state) {
  const ReachDeltaCase c(/*link=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(c.step());
}
BENCHMARK(BM_ReachIncrementalNode)->Unit(benchmark::kMicrosecond);

void BM_ReachIncrementalLink(benchmark::State& state) {
  const ReachDeltaCase c(/*link=*/true);
  for (auto _ : state) benchmark::DoNotOptimize(c.step());
}
BENCHMARK(BM_ReachIncrementalLink)->Unit(benchmark::kMicrosecond);

void BM_BipartiteWvc(benchmark::State& state) {
  const int side = (int)state.range(0);
  Rng rng(8);
  std::vector<double> lw((std::size_t)side), rw((std::size_t)side);
  for (auto& w : lw) w = (double)(1 + rng.below(50));
  for (auto& w : rw) w = (double)(1 + rng.below(50));
  std::vector<BipartiteEdge> edges;
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      if (rng.bernoulli(0.1)) edges.push_back({i, j});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_weight_bipartite_cover(lw, rw, edges));
  }
}
BENCHMARK(BM_BipartiteWvc)->Arg(32)->Arg(128)->Arg(512);

void BM_Lamb1FullPipeline3D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, state.range(0), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamb1(shape, faults, {}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Lamb1FullPipeline3D)->RangeMultiplier(2)->Range(64, 1024)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void BM_Lamb1FullPipeline2D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(2, 181);
  const FaultSet faults = make_faults(shape, state.range(0), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamb1(shape, faults, {}));
  }
}
BENCHMARK(BM_Lamb1FullPipeline2D)->Arg(164)->Arg(491)->Arg(983)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lamb
