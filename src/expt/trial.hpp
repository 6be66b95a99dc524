// Monte-Carlo trial runner for the paper's Section 8 simulations: repeat
// `trials` times { draw f random node faults, run Lamb1, record lamb-set
// size, partition sizes, and running time }. Trials run concurrently on
// the support/parallel.hpp pool (LAMBMESH_THREADS / --threads; 1 = exact
// serial). Per-trial seeds derive from (base seed, trial index) and
// statistics aggregate in trial order, so every figure is reproducible
// bit-for-bit at any thread count.
#pragma once

#include <cstdint>

#include "core/lamb.hpp"
#include "mesh/mesh.hpp"
#include "support/stats.hpp"

namespace lamb::expt {

struct TrialSummary {
  int trials = 0;
  std::int64_t f = 0;
  Accumulator lambs;
  Accumulator ses;        // |SES partition| of round 1
  Accumulator des;        // |DES partition| of round k
  Accumulator runtime_s;  // lamb1 wall time (fault generation excluded)
  Accumulator cover_weight;
  std::int64_t trials_needing_lambs = 0;
};

TrialSummary run_lamb_trials(const MeshShape& shape, std::int64_t f,
                             int trials, std::uint64_t seed,
                             const LambOptions& options = {});

}  // namespace lamb::expt
