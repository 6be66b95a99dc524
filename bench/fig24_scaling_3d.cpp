// Figure 24: average percentage of lambs vs mesh size N = n^3 for 3D
// meshes with 3% random faults, n chosen so that n^3 is closest to 2^i
// for i = 10..15. Same expected shape as Figure 23 with much smaller
// percentages (3D bisection width n^2 tracks f more closely).
#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 24", "lamb % vs mesh size, 3D, 3% faults",
                     "M_3(n), n^3 ~ 2^i for i in 10..15, 1000 trials");
  const auto rows =
      expt::size_sweep(3, 3.0, 10, 15, scaled_trials(25), default_seed());
  expt::print_sweep(rows);
  return 0;
}
