// Figure 21: average percentage of lambs vs the ratio of the number of
// random faults to the bisection width (n for M_2(n)), for 2D meshes of
// widths 32, 64, 128. Paper shape: small percentages up to ratio ~1,
// degradation beyond, worse for smaller meshes.
#include <cstdio>

#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Figure 21", "lamb % vs faults / bisection-width ratio, 2D",
      "M_2(n) for n in {32,64,128}, ratio in {0.5..3.0}, 1000 trials");
  const std::vector<double> ratios{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  for (Coord n : {32, 64, 128}) {
    std::printf("--- M_2(%d), bisection width %d ---\n", n, n);
    const auto rows =
        expt::ratio_sweep(2, n, ratios, scaled_trials(n >= 128 ? 50 : 150),
                          default_seed() + n);
    expt::print_sweep(rows);
    std::printf("\n");
  }
  return 0;
}
