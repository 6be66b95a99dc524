// Figure 18: maximum and average number of lambs vs the percentage of
// random node faults on the 32x32x32 3D mesh (k = 2 rounds of XYZ
// routing). Paper reference points (1000 trials): at 3% faults (f = 983),
// average 67.6 lambs = 0.206% of the 32768 nodes; additional damage
// 67.6/983 = 6.88%. The abstract quotes "less than 68 lambs".
#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 18", "lambs vs fault % on the 32^3 3D mesh",
                     "M_3(32), f% in {0.5..3.0}, 1000 trials in the paper");
  const MeshShape shape = MeshShape::cube(3, 32);
  const auto rows = expt::percent_sweep(shape, {0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
                                        scaled_trials(25), default_seed());
  expt::print_sweep(rows);
  return 0;
}
