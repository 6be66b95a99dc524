#include "expt/trial.hpp"

#include <vector>

#include "mesh/fault_set.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace lamb::expt {

// Trials land in a records vector indexed by trial number and are
// aggregated in trial order afterwards, and every trial's RNG is seeded
// from (seed, trial_index) alone, so all summary statistics are
// bit-identical at any thread count; only the wall-clock in runtime_s
// varies.
TrialSummary run_lamb_trials(const MeshShape& shape, std::int64_t f,
                             int trials, std::uint64_t seed,
                             const LambOptions& options) {
  struct TrialRecord {
    double lambs = 0, ses = 0, des = 0, cover = 0, seconds = 0;
  };
  std::vector<TrialRecord> records(static_cast<std::size_t>(trials));

  // Per-trial seeds are derived up front (seed, trial_index) -> splitmix,
  // exactly as the historical serial loop did, so fixed seeds keep
  // producing the published figures.
  Rng master(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    seeds[static_cast<std::size_t>(t)] =
        master.child_seed(static_cast<std::uint64_t>(t));
  }

  // Metric handles are resolved once; workers record through the sharded
  // counters without contending on a shared cache line.
  obs::Counter& trial_count = obs::counter("expt.trials");
  obs::Histogram& trial_seconds = obs::histogram("expt.trial.seconds");
  // Grain 1: every trial is a schedulable task, which load-balances the
  // heavy-tailed lamb1 runtimes across the pool.
  par::parallel_for(0, trials, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      Rng rng(seeds[static_cast<std::size_t>(t)]);
      const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
      Stopwatch watch;
      const LambResult result = lamb1(shape, faults, options);
      TrialRecord& rec = records[static_cast<std::size_t>(t)];
      rec.seconds = watch.seconds();
      trial_count.add();
      trial_seconds.observe(rec.seconds);
      rec.lambs = static_cast<double>(result.size());
      rec.ses = static_cast<double>(result.stats.p);
      rec.des = static_cast<double>(result.stats.q);
      rec.cover = result.stats.cover_weight;
    }
  });

  TrialSummary summary;
  summary.trials = trials;
  summary.f = f;
  for (const TrialRecord& rec : records) {
    summary.runtime_s.add(rec.seconds);
    summary.lambs.add(rec.lambs);
    summary.ses.add(rec.ses);
    summary.des.add(rec.des);
    summary.cover_weight.add(rec.cover);
    if (rec.lambs > 0) ++summary.trials_needing_lambs;
  }
  return summary;
}

}  // namespace lamb::expt
