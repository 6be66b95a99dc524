// End-to-end application lifecycle on a degrading machine, built on the
// MachineManager (the paper's roll-back/reconfigure loop) and the
// collective schedules: a bulk-synchronous application alternates
// compute steps with all-reduce exchanges; every epoch a live fault
// storm strikes mid-flight, the RecoveryDriver rolls back to the last
// checkpoint, reports the applied faults, reconfigures (monotone lamb
// growth), replays the undelivered messages, and the application
// resumes on the surviving partition.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "collective/schedule.hpp"
#include "io/cli_args.hpp"
#include "manager/machine_manager.hpp"
#include "manager/recovery.hpp"
#include "support/rng.hpp"
#include "wormhole/fault_schedule.hpp"
#include "wormhole/route_cache.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  // No options of its own: the process flags (--serve SPEC to scrape the
  // run live, --threads N, --metrics DEST).
  io::parse_cli(argc, argv, {});
  manager::MachineManager mgr(MeshShape::cube(3, 10));  // 1000 nodes
  Rng rng(20020416);
  mgr.reconfigure();  // epoch 1: pristine machine
  manager::RecoveryDriver driver(mgr, manager::RecoveryOptions{});

  std::printf(
      "bulk-synchronous application on %s under live fault storms\n"
      "epoch | faults | lambs | survivors | storm | tries | rollbk | "
      "halo msgs | allreduce cycles | solve ms\n",
      mgr.shape().to_string().c_str());

  for (int epoch = 1; epoch <= 6; ++epoch) {
    // Halo-exchange phase between random survivor pairs, with a live
    // storm striking mid-flight: a burst of node deaths plus a link
    // death, at cycles the application cannot predict. The driver
    // checkpoints, detects, rolls back, reconfigures, and replays until
    // every surviving pair's message lands.
    const auto survivors = mgr.survivors();
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < 200) {
      const NodeId src =
          survivors[rng.below((std::uint64_t)survivors.size())];
      const NodeId dst =
          survivors[rng.below((std::uint64_t)survivors.size())];
      if (src != dst) pairs.push_back({src, dst});
    }
    const auto storm = wormhole::FaultSchedule::random_storm(
        mgr.shape(), mgr.faults(), /*node_kills=*/15, /*link_kills=*/1,
        /*horizon=*/300, rng);
    const auto recovery = driver.run_epoch(std::move(pairs), storm, rng);
    if (!recovery.completed) {
      std::printf("FATAL: recovery gave up at epoch %d\n", epoch);
      return 1;
    }
    const auto& report = mgr.history().back();

    // Compute step: all-reduce over the survivors of the (possibly just
    // reconfigured) machine. The picker uses the manager's current
    // rounds — escalation under a solve budget would need the extra VC.
    const auto post_survivors = mgr.survivors();
    wormhole::RouteCache routes(mgr.shape(), mgr.faults(), mgr.orders());
    const auto schedule =
        collective::recursive_doubling_exchange(post_survivors);
    const auto result = collective::simulate_schedule(
        mgr.shape(), mgr.faults(), schedule, routes, wormhole::SimConfig{},
        /*message_flits=*/8, rng);
    if (!result.sim.all_delivered() || result.sim.deadlocked) {
      std::printf("FATAL: collective failed at epoch %d\n", epoch);
      return 1;
    }

    std::printf(
        "%5d | %6lld | %5lld | %9lld | %5lld | %5d | %6d | %4lld/%-4lld | "
        "%16lld | %8.1f\n",
        epoch, (long long)report.total_faults, (long long)report.lambs_total,
        (long long)report.survivors, (long long)storm.size(),
        recovery.attempts, recovery.rollbacks,
        (long long)recovery.messages_delivered,
        (long long)recovery.messages_requested,
        (long long)result.completion_cycles, report.solve_seconds * 1e3);
  }
  std::printf(
      "\nThe machine degrades gracefully: every storm is absorbed by the\n"
      "checkpoint/roll-back loop — new faults are diagnosed from the\n"
      "simulation itself, a handful of lambs buys back guaranteed k-round\n"
      "connectivity, and the replayed halo messages plus the collective\n"
      "keep completing without deadlock or rerouting logic.\n");
  return 0;
}
