// Ablation: collective completion time on the reconfigured machine. The
// Blue Gene motivation runs bulk-synchronous applications whose step
// time is gated by collectives (all-reduce in molecular dynamics [2]).
// Measures binomial broadcast and recursive-doubling exchange over the
// survivor set as the fault percentage grows: the lamb guarantee keeps
// every schedule well-defined; the cost of faults shows up only as
// longer detours and fewer participants.
#include <cstdio>

#include "collective/schedule.hpp"
#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 14 (application collectives)",
      "broadcast / all-reduce exchange time vs fault percentage",
      "M_3(8), 2-round XYZ, 2 VCs, 8-flit payloads, dependency-ordered");

  const MeshShape shape = MeshShape::cube(3, 8);
  expt::TableWriter table({"fault%", "survivors", "bcast_phases",
                           "bcast_cycles", "xchg_phases", "xchg_cycles"},
                          13);
  table.print_header();
  for (double pct : {0.0, 1.0, 3.0, 6.0, 10.0}) {
    Rng rng(default_seed() + (std::uint64_t)(pct * 7));
    const std::int64_t f = (std::int64_t)((double)shape.size() * pct / 100.0);
    const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
    const LambResult lambs = lamb1(shape, faults, {});
    const auto survivors = survivor_nodes(faults, lambs.lambs);
    wormhole::RouteCache routes(shape, faults, ascending_rounds(3, 2));

    const auto bcast = collective::simulate_schedule(
        shape, faults, collective::binomial_broadcast(survivors, 0), routes,
        wormhole::SimConfig{}, 8, rng);
    const auto xchg = collective::simulate_schedule(
        shape, faults, collective::recursive_doubling_exchange(survivors),
        routes, wormhole::SimConfig{}, 8, rng);
    if (!bcast.sim.all_delivered() || !xchg.sim.all_delivered()) {
      std::printf("UNEXPECTED: collective failed to drain\n");
      return 1;
    }
    table.print_row({expt::TableWriter::num(pct, 1),
                     expt::TableWriter::integer((std::int64_t)survivors.size()),
                     expt::TableWriter::integer(bcast.phases),
                     expt::TableWriter::integer(bcast.completion_cycles),
                     expt::TableWriter::integer(xchg.phases),
                     expt::TableWriter::integer(xchg.completion_cycles)});
  }
  std::printf(
      "\nCollectives stay deadlock-free and complete at every fault level;\n"
      "completion grows mildly with faults (detours + serialization on\n"
      "shared links), never catastrophically — the survivor set behaves\n"
      "like a slightly smaller healthy machine, which is the lamb\n"
      "method's selling point for bulk-synchronous applications.\n");
  return 0;
}
