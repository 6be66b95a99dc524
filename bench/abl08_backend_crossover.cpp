// Ablation: footnote 7 of the paper — "for f sufficiently large compared
// to N, it will be more efficient to compute R^(k) by computing the
// k-round spanning tree from each SES representative node, using time
// O(d^2 f N) instead of O(k d^3 f^3)". Sweeps the fault fraction on a
// fixed mesh and times R^(k) both ways: the Section 6.2 chain
// (compute_reachability, the solver's one path) against the footnote's
// per-representative k-round flood, built here from
// FloodOracle::reach_from over the same partitions. Both columns include
// the partitions; the two matrices are checked bit for bit.
#include <cstdio>
#include <vector>

#include "core/reach_matrices.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "reach/flood_oracle.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

// Footnote 7's R^(k): one k-round flood per round-1 SES representative of
// `reach`, read at its round-k DES representatives. Representatives are
// independent and each fills its own row.
BitMatrix flood_rk(const MeshShape& shape, const FaultSet& faults,
                   const MultiRoundOrder& orders,
                   const ReachComputation& reach) {
  const FloodOracle flood(shape, faults);
  const EquivPartition& ses = reach.first_ses();
  const EquivPartition& des = reach.last_des();
  std::vector<NodeId> des_reps(static_cast<std::size_t>(des.size()));
  for (std::int64_t j = 0; j < des.size(); ++j) {
    des_reps[static_cast<std::size_t>(j)] = shape.index(des.rep(j));
  }
  BitMatrix rk(ses.size(), des.size());
  par::parallel_for(0, ses.size(), 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const Bits from = flood.reach_from(ses.rep(i), orders);
      for (std::int64_t j = 0; j < des.size(); ++j) {
        if (from.test(des_reps[static_cast<std::size_t>(j)])) rk.set(i, j);
      }
    }
  });
  return rk;
}

}  // namespace

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 8 (paper footnote 7)",
      "R^(k) crossover: matrix chain vs per-representative flood",
      "M_2(48), fault fraction 1..60%, 2 rounds of XY");

  const MeshShape shape = MeshShape::cube(2, 48);
  const int trials = scaled_trials(10);
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  expt::TableWriter table({"fault%", "f", "p(SES)", "reach_matrix_ms",
                           "reach_flood_ms", "same_rk"},
                          16);
  table.print_header();
  Rng master(default_seed());
  for (double pct : {1.0, 5.0, 10.0, 20.0, 40.0, 60.0}) {
    const std::int64_t f = (std::int64_t)((double)shape.size() * pct / 100.0);
    Accumulator reach_matrix_ms, reach_flood_ms;
    std::int64_t p_last = 0;
    bool same = true;
    for (int t = 0; t < trials; ++t) {
      Rng rng(master.child_seed((std::uint64_t)(pct * 1000) + (std::uint64_t)t));
      const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
      Stopwatch w1;
      const ReachComputation cm = compute_reachability(shape, faults, orders);
      reach_matrix_ms.add(w1.millis());
      Stopwatch w2;
      const BitMatrix rf = flood_rk(shape, faults, orders, cm);
      reach_flood_ms.add(1e3 * cm.seconds_partition + w2.millis());
      same = same && cm.rk == rf;
      p_last = cm.first_ses().size();
    }
    table.print_row({expt::TableWriter::num(pct, 0),
                     expt::TableWriter::integer(f),
                     expt::TableWriter::integer(p_last),
                     expt::TableWriter::num(reach_matrix_ms.mean(), 2),
                     expt::TableWriter::num(reach_flood_ms.mean(), 2),
                     same ? "yes" : "NO"});
  }
  std::printf(
      "\nBoth columns grow with the fault density: the matrix chain with\n"
      "its products over p SES and q DES cells, the floods with p k-round\n"
      "floods, each a few microseconds of word-parallel passes. The floods\n"
      "overtake the chain at a few percent faults, far below footnote 7's\n"
      "f ~ N regime. The solver keeps the chain: its factors R_t and I_t are\n"
      "what an incremental re-solve reuses, and the cover, not R^(k),\n"
      "dominates a whole solve at these densities. Both agree bit for bit\n"
      "on every instance.\n");
  return 0;
}
