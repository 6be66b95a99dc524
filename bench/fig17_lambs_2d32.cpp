// Figure 17: maximum and average number of lambs vs the percentage of
// random node faults on the 32x32 2D mesh (k = 2 rounds of XY routing).
// Paper reference points (1000 trials): at 3% faults, average 9.59 lambs
// = 0.937% of the 1024 nodes; additional damage 9.59/31 = 30.9%.
#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 17", "lambs vs fault % on the 32x32 2D mesh",
                     "M_2(32), f% in {0.5..3.0}, 1000 trials in the paper");
  const MeshShape shape = MeshShape::cube(2, 32);
  const auto rows = expt::percent_sweep(shape, {0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
                                        scaled_trials(500), default_seed());
  expt::print_sweep(rows);
  return 0;
}
