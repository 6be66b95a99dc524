// Figure 22: average percentage of lambs vs the ratio of the number of
// random faults to the bisection width (n^2 for M_3(n)), for 3D meshes of
// widths 10, 16, 25 (sizes ~1000, 4096, 15625). Paper shape: same as 2D
// — fine below ratio 1, degrading beyond, worse for smaller meshes.
#include <cstdio>

#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Figure 22", "lamb % vs faults / bisection-width ratio, 3D",
      "M_3(n) for n in {10,16,25}, ratio in {0.5..3.0}, 1000 trials");
  const std::vector<double> ratios{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  for (Coord n : {10, 16, 25}) {
    std::printf("--- M_3(%d), bisection width %d ---\n", n, n * n);
    const auto rows = expt::ratio_sweep(3, n, ratios,
                                        scaled_trials(n >= 25 ? 10 : 40),
                                        default_seed() + n);
    expt::print_sweep(rows);
    std::printf("\n");
  }
  return 0;
}
