// Reproduces the Section 3 numbers justifying k = 2 rounds:
//   * the Theorem 3.1 closed-form lower bound on the expected minimum
//     1-round lamb-set size for M_3(32) with 32 random faults (2698);
//   * the Appendix random-process simulation of the same lower bound
//     (paper: "a result of simulation for this case gives ... 5750");
//   * the 2-round contrast: with k = 2 rounds of XYZ routing and 32
//     random faults on M_3(32), almost no trials need any lamb at all
//     (paper: 5 of 10,000 trials needed one lamb).
#include <cstdio>

#include "core/theory.hpp"
#include "expt/table.hpp"
#include "expt/trial.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Section 3", "one round vs two rounds of routing",
                     "M_3(32), f = 32 random node faults");

  const int n = 32, f = 32;
  std::printf("Theorem 3.1 closed-form lower bound: %.1f (paper: 2698)\n",
              thm31_lower_bound(n, f));

  const int process_trials = scaled_trials(1000);
  Rng rng(default_seed());
  Accumulator process;
  for (int t = 0; t < process_trials; ++t) {
    Rng trial(rng.child_seed((std::uint64_t)t));
    process.add((double)thm31_process_sample(n, f, trial));
  }
  std::printf(
      "Appendix process simulation over %d trials: mean |S - F2| = %.1f "
      "(min %.0f, max %.0f; paper's simulated bound: 5750)\n",
      process_trials, process.mean(), process.min(), process.max());

  const int two_round_trials = scaled_trials(2000);
  const MeshShape shape = MeshShape::cube(3, n);
  const expt::TrialSummary two =
      expt::run_lamb_trials(shape, f, two_round_trials, default_seed() ^ 1);
  std::printf(
      "Two rounds of XYZ, %d trials: %lld trials needed lambs, average "
      "lamb count %.4f, max %d (paper: 5 of 10000 trials needed one lamb)\n",
      two_round_trials, (long long)two.trials_needing_lambs, two.lambs.mean(),
      (int)two.lambs.max());
  std::printf(
      "\nConclusion (paper Section 3): one round would sacrifice ~%.0f%% of "
      "the machine; two rounds sacrifice essentially nothing at f = n.\n",
      100.0 * thm31_lower_bound(n, f) / (double)shape.size());
  return 0;
}
