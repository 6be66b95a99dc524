// End-to-end integration tests: the full reconfiguration pipeline the
// paper's Blue Gene scenario implies — draw random faults, compute a lamb
// set with Lamb1, verify it brute-force, build k-round routes for
// survivor traffic, and run the wormhole simulation to completion with
// one virtual channel per round. Also checks determinism of the
// experiment harness.
#include <gtest/gtest.h>

#include <memory>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "expt/trial.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

struct E2eParam {
  std::vector<Coord> widths;
  int faults;
  int rounds;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const E2eParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, false, p.seed);
}

class EndToEnd : public ::testing::TestWithParam<E2eParam> {};

TEST_P(EndToEnd, FaultsToLambsToDeliveredTraffic) {
  const E2eParam p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  const auto orders = ascending_rounds(shape.dim(), p.rounds);

  // 1. Reconfigure: find lambs.
  LambOptions options;
  options.orders = orders;
  const LambResult lambs = lamb1(shape, faults, options);

  // 2. Verify the lamb set brute-force.
  ASSERT_TRUE(is_lamb_set(shape, faults, orders, lambs.lambs));

  // 3. Route survivor traffic: with a valid lamb set NOTHING is
  // unroutable.
  wormhole::RouteCache routes(shape, faults, orders);
  wormhole::TrafficConfig tc;
  tc.num_messages = 80;
  tc.message_flits = 4;
  tc.injection_gap = 1.0;
  const auto traffic =
      wormhole::generate_traffic(shape, faults, lambs.lambs, routes, tc, rng);
  EXPECT_EQ(traffic.unroutable, 0);

  // 4. Simulate with one VC per round: everything drains, no deadlock.
  wormhole::SimConfig sim;
  sim.vcs_per_link = p.rounds;
  wormhole::Network net(shape, faults, sim);
  for (const auto& m : traffic.messages) net.submit(m);
  const wormhole::SimResult result = net.run();
  EXPECT_TRUE(result.all_delivered());
  EXPECT_FALSE(result.deadlocked);

  // 5. Turn requirement (paper requirement (iv)): every route uses at
  // most k(d-1) + (k-1) turns.
  const double max_turns = p.rounds * (shape.dim() - 1) + (p.rounds - 1);
  EXPECT_LE(result.turns.max(), max_turns);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, EndToEnd,
    ::testing::Values(E2eParam{{8, 8}, 5, 2, 101},
                      E2eParam{{8, 8}, 10, 2, 102},
                      E2eParam{{12, 12}, 12, 2, 103},
                      E2eParam{{6, 6, 6}, 8, 2, 104},
                      E2eParam{{6, 6, 6}, 15, 2, 105},
                      E2eParam{{8, 8}, 6, 3, 106},
                      E2eParam{{16, 8}, 10, 2, 107},
                      E2eParam{{5, 5, 5}, 10, 2, 108},
                      E2eParam{{10, 10}, 20, 2, 109}),
    ::testing::PrintToStringParamName());

TEST(Harness, TrialRunnerDeterministicPerSeed) {
  const MeshShape shape = MeshShape::cube(2, 12);
  const expt::TrialSummary a = expt::run_lamb_trials(shape, 8, 5, 77);
  const expt::TrialSummary b = expt::run_lamb_trials(shape, 8, 5, 77);
  EXPECT_EQ(a.lambs.mean(), b.lambs.mean());
  EXPECT_EQ(a.lambs.max(), b.lambs.max());
  EXPECT_EQ(a.ses.mean(), b.ses.mean());
}

TEST(Harness, TrialRunnerRecordsAllTrials) {
  const MeshShape shape = MeshShape::cube(2, 10);
  const expt::TrialSummary s = expt::run_lamb_trials(shape, 5, 7, 78);
  EXPECT_EQ(s.trials, 7);
  EXPECT_EQ(s.lambs.count(), 7);
  EXPECT_EQ(s.f, 5);
  EXPECT_GE(s.trials_needing_lambs, 0);
  EXPECT_LE(s.trials_needing_lambs, 7);
}

TEST(Harness, DifferentSeedsUsuallyDiffer) {
  const MeshShape shape = MeshShape::cube(2, 12);
  const expt::TrialSummary a = expt::run_lamb_trials(shape, 20, 10, 1);
  const expt::TrialSummary b = expt::run_lamb_trials(shape, 20, 10, 2);
  // Weak but robust: the two 10-trial averages should not be identical
  // AND have identical maxima AND identical SES means simultaneously.
  EXPECT_FALSE(a.lambs.mean() == b.lambs.mean() &&
               a.lambs.max() == b.lambs.max() && a.ses.mean() == b.ses.mean());
}

TEST(Reconfiguration, IncrementalFaultsWithPredeterminedLambs) {
  // The roll-back/reconfigure loop of Section 1: when new faults appear,
  // recompute the lamb set as a superset of the existing one (Section 7
  // extension), so already-sacrificed nodes never need reactivation.
  const MeshShape shape = MeshShape::cube(2, 12);
  Rng rng(200);
  FaultSet faults(shape);
  std::vector<NodeId> lambs;
  for (int epoch = 0; epoch < 4; ++epoch) {
    // Three new random faults per epoch, avoiding current lambs.
    int added = 0;
    while (added < 3) {
      const NodeId id = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(shape.size())));
      if (faults.node_faulty(id) ||
          std::binary_search(lambs.begin(), lambs.end(), id)) {
        continue;
      }
      faults.add_node(id);
      ++added;
    }
    LambOptions options;
    options.predetermined = lambs;
    const LambResult result = lamb1(shape, faults, options);
    // Monotone growth and validity at every epoch.
    for (NodeId id : lambs) {
      EXPECT_TRUE(std::binary_search(result.lambs.begin(), result.lambs.end(),
                                     id));
    }
    EXPECT_TRUE(
        is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
    lambs = result.lambs;
  }
}

}  // namespace
}  // namespace lamb
