// Reproduces the paper's worked example (Section 5): the 12x12 mesh with
// faults {(9,1),(11,6),(10,10)}, the SES/DES partitions of Figures 3-4,
// the one-round matrix R of Table 1, the two-round matrix R^(2) = R I R
// of Table 2, the candidate sets / weighted bipartite graph of Figures
// 9-10, and the final lamb set {(11,10), (10,11)}.
#include <cstdio>

#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Table 1 + Table 2 (and Figures 2-10)",
      "deterministic 12x12 worked example of the lamb algorithm",
      "M_2(12), F_N = {(9,1),(11,6),(10,10)}, two rounds of XY routing");

  const MeshShape shape = MeshShape::cube(2, 12);
  FaultSet faults(shape);
  faults.add_node(Point{9, 1});
  faults.add_node(Point{11, 6});
  faults.add_node(Point{10, 10});
  const DimOrder xy = DimOrder::ascending(2);

  const EquivPartition ses = find_ses_partition(shape, faults, xy);
  const EquivPartition des = find_des_partition(shape, faults, xy);
  std::printf("SES partition (Figure 3), %lld sets:\n", (long long)ses.size());
  for (const RectSet& s : ses.sets) {
    const Point r = s.representative();
    std::printf("  %-14s rep=(%d,%d) |S|=%lld\n", s.to_string(shape).c_str(),
                r[0], r[1], (long long)s.size());
  }
  std::printf("DES partition (Figure 4), %lld sets:\n", (long long)des.size());
  for (const RectSet& s : des.sets) {
    const Point r = s.representative();
    std::printf("  %-14s rep=(%d,%d) |D|=%lld\n", s.to_string(shape).c_str(),
                r[0], r[1], (long long)s.size());
  }

  const ReachOracle oracle(shape, faults);
  const BitMatrix r1 = one_round_reach_matrix(oracle, ses, des, xy);
  std::printf("\nOne-round matrix R (Table 1), rows = SES, cols = DES:\n");
  for (std::int64_t i = 0; i < r1.rows(); ++i) {
    std::printf("  %-14s", ses.sets[(std::size_t)i].to_string(shape).c_str());
    for (std::int64_t j = 0; j < r1.cols(); ++j) {
      std::printf(" %d", r1.get(i, j) ? 1 : 0);
    }
    std::printf("\n");
  }

  const ReachComputation reach =
      compute_reachability(shape, faults, ascending_rounds(2, 2));
  std::printf("\nTwo-round matrix R^(2) = R I R (Table 2):\n");
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < reach.rk.rows(); ++i) {
    std::printf("  %-14s", ses.sets[(std::size_t)i].to_string(shape).c_str());
    for (std::int64_t j = 0; j < reach.rk.cols(); ++j) {
      const bool one = reach.rk.get(i, j);
      zeros += one ? 0 : 1;
      std::printf(" %d", one ? 1 : 0);
    }
    std::printf("\n");
  }
  std::printf("zeros in R^(2): %lld (paper: 3, at (S3,D5),(S8,D2),(S8,D6))\n",
              (long long)zeros);

  const LambResult result = lamb1(shape, faults, {});
  std::printf(
      "\nWVC candidates (Figure 9/10): %lld relevant SES, %lld relevant DES\n",
      (long long)result.stats.relevant_ses, (long long)result.stats.relevant_des);
  std::printf("minimum cover weight: %.0f (paper: 2)\n",
              result.stats.cover_weight);
  std::printf("lamb set (paper: {(11,10),(10,11)}):");
  for (NodeId id : result.lambs) {
    const Point p = shape.point(id);
    std::printf(" (%d,%d)", p[0], p[1]);
  }
  std::printf("\n");
  return 0;
}
