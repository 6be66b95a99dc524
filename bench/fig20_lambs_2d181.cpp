// Figure 20: maximum and average number of lambs vs the percentage of
// random node faults on the 181x181 2D mesh (N = 32761, comparable to
// the 32^3 3D mesh). The paper's point: at equal node counts and equal
// fault percentages the 2D mesh needs far more lambs than 3D, because
// the same f is a large multiple of the much smaller bisection width
// (181 vs 1024).
#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 20", "lambs vs fault % on the 181x181 2D mesh",
                     "M_2(181), f% in {0.5..3.0}, 1000 trials in the paper");
  const MeshShape shape = MeshShape::cube(2, 181);
  const auto rows = expt::percent_sweep(shape, {0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
                                        scaled_trials(25), default_seed());
  expt::print_sweep(rows);
  return 0;
}
