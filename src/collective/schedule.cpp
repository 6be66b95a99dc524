#include "collective/schedule.hpp"

#include <stdexcept>
#include <unordered_map>

namespace lamb::collective {

Schedule binomial_broadcast(const std::vector<NodeId>& survivors,
                            std::size_t root_index) {
  if (survivors.empty()) return {};
  if (root_index >= survivors.size()) {
    throw std::invalid_argument("binomial_broadcast: bad root index");
  }
  const std::size_t p = survivors.size();
  Schedule schedule;
  // Virtual rank r = (index - root) mod p; rank 0 is the root. In phase
  // t, ranks < 2^t send to rank + 2^t.
  std::size_t stride = 1;
  int phase = 0;
  while (stride < p) {
    for (std::size_t r = 0; r < stride && r + stride < p; ++r) {
      const std::size_t src = (root_index + r) % p;
      const std::size_t dst = (root_index + r + stride) % p;
      schedule.steps.push_back(Step{survivors[src], survivors[dst], phase});
    }
    stride *= 2;
    ++phase;
  }
  schedule.phases = phase;
  return schedule;
}

Schedule recursive_doubling_exchange(const std::vector<NodeId>& survivors) {
  const std::size_t p = survivors.size();
  if (p < 2) return {};
  std::size_t core = 1;
  while (core * 2 <= p) core *= 2;
  const std::size_t excess = p - core;

  Schedule schedule;
  int phase = 0;
  // Fold-in: survivor core+i sends to survivor i.
  if (excess > 0) {
    for (std::size_t i = 0; i < excess; ++i) {
      schedule.steps.push_back(Step{survivors[core + i], survivors[i], phase});
    }
    ++phase;
  }
  // Pairwise exchange within the core.
  for (std::size_t stride = 1; stride < core; stride *= 2, ++phase) {
    for (std::size_t i = 0; i < core; ++i) {
      const std::size_t partner = i ^ stride;
      // Both directions: a swap is two messages.
      schedule.steps.push_back(Step{survivors[i], survivors[partner], phase});
    }
  }
  // Fold-out: survivor i returns the result to survivor core+i.
  if (excess > 0) {
    for (std::size_t i = 0; i < excess; ++i) {
      schedule.steps.push_back(Step{survivors[i], survivors[core + i], phase});
    }
    ++phase;
  }
  schedule.phases = phase;
  return schedule;
}

CollectiveResult simulate_schedule(const MeshShape& shape,
                                   const FaultSet& faults,
                                   const Schedule& schedule,
                                   wormhole::RouteCache& routes,
                                   const wormhole::SimConfig& config,
                                   int message_flits, Rng& rng) {
  wormhole::Network net(shape, faults, config);
  // Dependency rule: a message waits for the last message its SOURCE
  // received in a STRICTLY EARLIER phase (it cannot forward data it does
  // not have, but the sends of one phase are concurrent). Receives are
  // folded into the dependency map only at phase boundaries.
  std::unordered_map<NodeId, std::int64_t> last_received;
  std::vector<std::pair<NodeId, std::int64_t>> this_phase;
  std::int64_t submitted = 0;
  int current_phase = 0;
  for (const Step& step : schedule.steps) {
    if (step.phase != current_phase) {
      for (const auto& [node, msg_index] : this_phase) {
        last_received[node] = msg_index;
      }
      this_phase.clear();
      current_phase = step.phase;
    }
    auto route = routes.build(step.src, step.dst, rng);
    if (!route) {
      throw std::runtime_error(
          "simulate_schedule: unroutable step (survivors must come from a "
          "valid lamb set)");
    }
    wormhole::Message msg;
    msg.id = submitted;
    msg.route = std::move(*route);
    msg.length_flits = message_flits;
    msg.inject_cycle = 0;
    const auto it = last_received.find(step.src);
    msg.after = it == last_received.end() ? -1 : it->second;
    net.submit(std::move(msg));
    this_phase.emplace_back(step.dst, submitted);
    ++submitted;
  }

  CollectiveResult result;
  result.sim = net.run();
  result.completion_cycles = result.sim.cycles;
  result.phases = schedule.phases;
  result.messages = submitted;
  return result;
}

}  // namespace lamb::collective
