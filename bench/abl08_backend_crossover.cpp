// Ablation: footnote 7 of the paper — "for f sufficiently large compared
// to N, it will be more efficient to compute R^(k) by computing the
// k-round spanning tree from each SES representative node, using time
// O(d^2 f N) instead of O(k d^3 f^3)". Sweeps the fault fraction on a
// fixed mesh and times both backends; the crossover appears where the
// partition count (~df) makes the matrix product outgrow p floods of the
// whole mesh. The matrix_ms/flood_ms columns time all of lamb1, most of
// which is the WVC cover; reach_matrix_ms/reach_flood_ms time
// compute_reachability alone, the part the backend choice changes. Both
// backends are verified to produce identical lamb sets.
#include <cstdio>

#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 8 (paper footnote 7)",
      "R^(k) backend crossover: matrix product vs per-representative flood",
      "M_2(48), fault fraction 1..40%, 2 rounds of XY");

  const MeshShape shape = MeshShape::cube(2, 48);
  const int trials = scaled_trials(10);
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  expt::TableWriter table({"fault%", "f", "p(SES)", "matrix_ms", "flood_ms",
                           "reach_matrix_ms", "reach_flood_ms", "auto_picks",
                           "same_lambs"},
                          16);
  table.print_header();
  Rng master(default_seed());
  for (double pct : {1.0, 5.0, 10.0, 20.0, 40.0, 60.0}) {
    const std::int64_t f = (std::int64_t)((double)shape.size() * pct / 100.0);
    Accumulator matrix_ms, flood_ms, reach_matrix_ms, reach_flood_ms;
    std::int64_t p_last = 0;
    bool same = true;
    for (int t = 0; t < trials; ++t) {
      Rng rng(master.child_seed((std::uint64_t)(pct * 1000) + (std::uint64_t)t));
      const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
      LambOptions mopts;
      mopts.backend = ReachBackend::kMatrix;
      LambOptions fopts;
      fopts.backend = ReachBackend::kFlood;
      Stopwatch w1;
      const LambResult rm = lamb1(shape, faults, mopts);
      matrix_ms.add(w1.millis());
      Stopwatch w2;
      const LambResult rf = lamb1(shape, faults, fopts);
      flood_ms.add(w2.millis());
      Stopwatch w3;
      const ReachComputation cm =
          compute_reachability(shape, faults, orders, ReachBackend::kMatrix);
      reach_matrix_ms.add(w3.millis());
      Stopwatch w4;
      const ReachComputation cf =
          compute_reachability(shape, faults, orders, ReachBackend::kFlood);
      reach_flood_ms.add(w4.millis());
      same = same && rm.lambs == rf.lambs && cm.rk == cf.rk;
      p_last = rm.stats.p;
    }
    // Which backend does kAuto's heuristic select here?
    const double q = (double)p_last;  // p ~ q for random faults
    const bool auto_flood = q * q / 64.0 > 2.0 * 2 * 2 * (double)shape.size();
    table.print_row({expt::TableWriter::num(pct, 0),
                     expt::TableWriter::integer(f),
                     expt::TableWriter::integer(p_last),
                     expt::TableWriter::num(matrix_ms.mean(), 2),
                     expt::TableWriter::num(flood_ms.mean(), 2),
                     expt::TableWriter::num(reach_matrix_ms.mean(), 2),
                     expt::TableWriter::num(reach_flood_ms.mean(), 2),
                     auto_flood ? "flood" : "matrix", same ? "yes" : "NO"});
  }
  std::printf(
      "\nBoth reach columns grow with the fault density: the matrix chain\n"
      "with its products over p SES and q DES cells, the flood backend with\n"
      "its p k-round floods, each a few microseconds of word-parallel\n"
      "passes. In the reach-only columns the floods overtake the chain at a\n"
      "few percent faults, far below footnote 7's f ~ N regime, while\n"
      "kAuto's cost model (flood_backend_wins, not yet re-derived) still\n"
      "picks the matrix path. The lamb1 columns hide the crossover: the\n"
      "WVC cover dominates both. Both backends agree bit for bit on every\n"
      "instance.\n");
  return 0;
}
