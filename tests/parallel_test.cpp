// Tests for the parallel execution layer (support/parallel.hpp) and its
// determinism contract: parallel_for scheduling, the exact-serial
// fallback, and bit-identical solver / sweep results across thread
// counts (the LAMBMESH_THREADS=1,2,8 guarantee of docs/PARALLELISM.md).
// Also pins the width_for_size candidate search of the scaling sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "expt/experiments.hpp"
#include "expt/trial.hpp"
#include "mesh/fault_set.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "flood_reference.hpp"

namespace lamb {
namespace {

// Restores the default pool width when a test exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { par::set_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  par::set_threads(4);
  std::vector<std::atomic<int>> hits(257);
  par::parallel_for(0, 257, 3, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  PoolWidthGuard guard;
  par::set_threads(4);
  int calls = 0;
  par::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range within one grain runs inline as a single chunk.
  std::vector<std::int64_t> seen;
  par::parallel_for(2, 7, 100, [&](std::int64_t b, std::int64_t e) {
    seen.push_back(b);
    seen.push_back(e);
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2, 7}));
}

TEST(ParallelFor, SerialWidthRunsInline) {
  PoolWidthGuard guard;
  par::set_threads(1);
  EXPECT_EQ(par::threads(), 1);
  std::vector<std::int64_t> starts;
  par::parallel_for(0, 10, 2, [&](std::int64_t b, std::int64_t e) {
    starts.push_back(b);
    EXPECT_EQ(e, b + 10);  // single inline chunk covers the whole range
  });
  EXPECT_EQ(starts, (std::vector<std::int64_t>{0}));
}

TEST(ParallelFor, NestedCallsRunSeriallyInline) {
  PoolWidthGuard guard;
  par::set_threads(4);
  EXPECT_FALSE(par::in_parallel_region());
  std::atomic<int> inner_total{0};
  par::parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    EXPECT_TRUE(par::in_parallel_region());
    for (std::int64_t i = b; i < e; ++i) {
      par::parallel_for(0, 4, 1, [&](std::int64_t ib, std::int64_t ie) {
        inner_total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_FALSE(par::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  PoolWidthGuard guard;
  par::set_threads(4);
  EXPECT_THROW(
      par::parallel_for(0, 64, 1,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 17) throw std::runtime_error("chunk 17");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> total{0};
  par::parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(SetThreads, ReconfiguresAndRestoresDefault) {
  PoolWidthGuard guard;
  par::set_threads(3);
  EXPECT_EQ(par::threads(), 3);
  par::set_threads(8);
  EXPECT_EQ(par::threads(), 8);
  par::set_threads(0);
  EXPECT_GE(par::threads(), 1);
}

// --- Determinism across thread counts --------------------------------------

FaultSet fixed_faults(const MeshShape& shape, std::int64_t f,
                      std::uint64_t seed) {
  Rng rng(seed);
  return FaultSet::random_nodes(shape, f, rng);
}

TEST(Determinism, Lamb1AndLamb2BitIdenticalAcrossThreadCounts) {
  PoolWidthGuard guard;
  const MeshShape shape = MeshShape::cube(2, 16);
  const FaultSet faults = fixed_faults(shape, 14, 909);
  par::set_threads(1);
  const LambResult lamb1_serial = lamb1(shape, faults, {});
  const LambResult lamb2_serial = lamb2(shape, faults, {});
  for (int threads : {2, 8}) {
    par::set_threads(threads);
    const LambResult r1 = lamb1(shape, faults, {});
    const LambResult r2 = lamb2(shape, faults, {});
    EXPECT_EQ(r1.lambs, lamb1_serial.lambs) << threads << " threads";
    EXPECT_EQ(r2.lambs, lamb2_serial.lambs) << threads << " threads";
  }
}

TEST(Determinism, ReachabilityMatricesIdenticalAcrossThreadCounts) {
  PoolWidthGuard guard;
  const MeshShape shape = MeshShape::cube(2, 12);
  const FaultSet faults = fixed_faults(shape, 10, 4242);
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  const BitMatrix want = flood_reference(
      shape, faults, orders, compute_reachability(shape, faults, orders));
  for (int threads : {1, 2, 8}) {
    par::set_threads(threads);
    EXPECT_EQ(compute_reachability(shape, faults, orders).rk, want)
        << threads << " threads";
  }
}

TEST(Determinism, TrialSummariesBitIdenticalAcrossThreadCounts) {
  PoolWidthGuard guard;
  const MeshShape shape = MeshShape::cube(2, 16);
  par::set_threads(1);
  const expt::TrialSummary serial = expt::run_lamb_trials(shape, 12, 11, 55);
  for (int threads : {2, 8}) {
    par::set_threads(threads);
    const expt::TrialSummary s = expt::run_lamb_trials(shape, 12, 11, 55);
    EXPECT_EQ(s.lambs.mean(), serial.lambs.mean()) << threads;
    EXPECT_EQ(s.lambs.max(), serial.lambs.max()) << threads;
    EXPECT_EQ(s.lambs.variance(), serial.lambs.variance()) << threads;
    EXPECT_EQ(s.ses.mean(), serial.ses.mean()) << threads;
    EXPECT_EQ(s.des.mean(), serial.des.mean()) << threads;
    EXPECT_EQ(s.cover_weight.mean(), serial.cover_weight.mean()) << threads;
    EXPECT_EQ(s.trials_needing_lambs, serial.trials_needing_lambs) << threads;
  }
}

// --- width_for_size (scaling sweeps, Figures 23/24) -------------------------

TEST(WidthForSize, PinsKnownWidths) {
  // Exact powers.
  EXPECT_EQ(expt::width_for_size(2, 10), 32);   // 32^2 = 1024
  EXPECT_EQ(expt::width_for_size(2, 14), 128);  // 128^2 = 16384
  EXPECT_EQ(expt::width_for_size(3, 9), 8);     // 8^3 = 512
  EXPECT_EQ(expt::width_for_size(3, 15), 32);   // 32^3 = 32768
  // Rounded: the paper's M_2(181) has 181^2 = 32761 ~ 2^15.
  EXPECT_EQ(expt::width_for_size(2, 15), 181);
  // 2^10 between 10^3 = 1000 and 11^3 = 1331: 1000 is closer.
  EXPECT_EQ(expt::width_for_size(3, 10), 10);
  // 2^11 = 2048 between 12^3 = 1728 and 13^3 = 2197: 13 wins (149 < 320).
  EXPECT_EQ(expt::width_for_size(3, 11), 13);
}

TEST(WidthForSize, MonotoneInExponent) {
  for (int dim : {2, 3}) {
    Coord prev = 0;
    for (int e = dim; e <= 20; ++e) {
      const Coord n = expt::width_for_size(dim, e);
      EXPECT_GE(n, 1);
      EXPECT_GE(n, prev) << "dim " << dim << " exp " << e;
      prev = n;
    }
  }
}

}  // namespace
}  // namespace lamb
