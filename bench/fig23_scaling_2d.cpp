// Figure 23: average percentage of lambs vs mesh size N = n^2 for 2D
// meshes with 3% random faults, n chosen so that n^2 is closest to 2^i
// for i = 10..15. Paper shape: the lamb percentage INCREASES with mesh
// size at fixed fault fraction, because f grows like c n^2 while the
// bisection width grows only like n.
#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 23", "lamb % vs mesh size, 2D, 3% faults",
                     "M_2(n), n^2 ~ 2^i for i in 10..15, 1000 trials");
  const auto rows =
      expt::size_sweep(2, 3.0, 10, 15, scaled_trials(40), default_seed());
  expt::print_sweep(rows);
  return 0;
}
