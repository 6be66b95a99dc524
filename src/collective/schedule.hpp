// Collective communication over the survivor set — the workload the
// paper's motivating application (molecular dynamics on Blue Gene [2])
// actually runs. Collectives are phase-structured: a node forwards data
// only after receiving it, which the wormhole Network models with
// message dependencies.
//
// Provided schedules:
//   * binomial broadcast: root reaches all P survivors in ceil(log2 P)
//     phases;
//   * recursive-doubling all-gather/all-reduce exchange: pairwise swaps
//     across power-of-two strides of the survivor list.
//
// Schedules are built over the *survivor list*, not mesh coordinates:
// after reconfiguration the survivors are an arbitrary node subset, and
// any survivor pair is routable in k rounds — that is precisely the lamb
// guarantee, and it is what makes these schedules well-defined.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"

namespace lamb::collective {

struct Step {
  NodeId src = 0;
  NodeId dst = 0;
  int phase = 0;
};

struct Schedule {
  std::vector<Step> steps;  // ordered by phase
  int phases = 0;
};

// Binomial-tree broadcast from survivors[root_index] to every survivor.
Schedule binomial_broadcast(const std::vector<NodeId>& survivors,
                            std::size_t root_index = 0);

// Recursive-doubling exchange (the communication skeleton of all-reduce /
// all-gather): in phase p, survivor i swaps with survivor i XOR 2^p.
// Survivor counts that are not powers of two use the standard fold-in:
// the excess nodes first send to a partner in the power-of-two core and
// receive the result back in a final phase.
Schedule recursive_doubling_exchange(const std::vector<NodeId>& survivors);

struct CollectiveResult {
  wormhole::SimResult sim;
  std::int64_t completion_cycles = 0;
  int phases = 0;
  std::int64_t messages = 0;
};

// Routes every step with `routes` (dependencies: each message waits for
// the last message its source received) and runs the simulation.
CollectiveResult simulate_schedule(const MeshShape& shape,
                                   const FaultSet& faults,
                                   const Schedule& schedule,
                                   wormhole::RouteCache& routes,
                                   const wormhole::SimConfig& config,
                                   int message_flits, Rng& rng);

}  // namespace lamb::collective
