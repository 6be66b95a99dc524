// Blue Gene-style reconfiguration loop (paper Section 1): the machine
// runs; a diagnostic detects new faults; the system rolls back to a
// checkpoint, recomputes the lamb set — as a SUPERSET of the previous one
// (Section 7's predetermined-lamb extension), so nodes already drained of
// work are never reactivated — and resumes on the surviving partition.
//
// This example simulates several fault epochs on a 16x16x16 mesh (4096
// nodes) and tracks machine capacity, lamb overhead, and reconfiguration
// time per epoch. Node values (Section 7) model partially degraded
// nodes: each fault epoch also degrades a few nodes to half value, making
// them preferred sacrifices.
#include <algorithm>
#include <cstdio>

#include "core/lamb.hpp"
#include "io/cli_args.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  const MeshShape shape = MeshShape::cube(3, 16);
  Rng rng(424242);
  FaultSet faults(shape);
  std::vector<double> values((std::size_t)shape.size(), 1.0);
  std::vector<NodeId> lambs;

  std::printf(
      "Blue Gene reconfiguration simulation on %s (%lld nodes)\n"
      "epoch | new faults | degraded | total f | lambs | survivors | "
      "capacity%% | reconfig ms\n",
      shape.to_string().c_str(), (long long)shape.size());

  for (int epoch = 1; epoch <= 8; ++epoch) {
    // The diagnostic reports a batch of new faults (nodes die) and a few
    // degraded nodes (some of a node's processors fail: value 0.5).
    int new_faults = 0, degraded = 0;
    while (new_faults < 40) {
      const NodeId id = (NodeId)rng.below((std::uint64_t)shape.size());
      if (faults.node_faulty(id) ||
          std::binary_search(lambs.begin(), lambs.end(), id)) {
        continue;
      }
      faults.add_node(id);
      ++new_faults;
    }
    while (degraded < 5) {
      const NodeId id = (NodeId)rng.below((std::uint64_t)shape.size());
      if (faults.node_faulty(id) || values[(std::size_t)id] < 1.0) continue;
      values[(std::size_t)id] = 0.5;
      ++degraded;
    }

    // Reconfigure: recompute lambs, keeping the old ones sacrificed.
    LambOptions options;
    options.predetermined = lambs;
    options.node_values = &values;
    Stopwatch watch;
    const LambResult result = lamb1(shape, faults, options);
    const double ms = watch.millis();
    lambs = result.lambs;

    // Remaining compute capacity = sum of survivor values.
    double capacity = 0.0;
    std::int64_t survivors = 0;
    for (NodeId id = 0; id < shape.size(); ++id) {
      if (faults.node_faulty(id) ||
          std::binary_search(lambs.begin(), lambs.end(), id)) {
        continue;
      }
      ++survivors;
      capacity += values[(std::size_t)id];
    }
    std::printf("%5d | %10d | %8d | %7lld | %5lld | %9lld | %8.2f%% | %9.2f\n",
                epoch, new_faults, degraded, (long long)faults.f(),
                (long long)result.size(), (long long)survivors,
                100.0 * capacity / (double)shape.size(), ms);
  }

  std::printf(
      "\nEvery epoch keeps the previous lambs sacrificed (monotone\n"
      "reconfiguration) and prefers degraded nodes as new lambs; capacity\n"
      "decays by roughly the fault rate, not by the lamb overhead.\n");
  return 0;
}
