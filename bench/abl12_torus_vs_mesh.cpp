// Ablation: Section 7's torus generalization. Wrap-around links give
// every route a second way around, so a torus should need fewer lambs
// than the mesh of the same size and fault set. Solved with the generic
// SEC/DEC solver (the rectangular partition argument does not transfer
// to tori, where the travel direction depends on the destination).
#include <cstdio>

#include "expt/table.hpp"
#include "generic/generic_solver.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 12 (Section 7, tori)",
      "lambs on a torus vs the same-size mesh, same fault pattern",
      "generic SEC/DEC solver, 2 rounds of ascending order");

  expt::TableWriter table({"size", "faults", "mesh_lambs", "torus_lambs",
                           "mesh_SECs", "torus_SECs"},
                          12);
  table.print_header();
  for (const auto& [n, f] : {std::pair{12, 14}, std::pair{12, 28},
                             std::pair{16, 25}, std::pair{16, 50}}) {
    const std::vector<Coord> widths{(Coord)n, (Coord)n};
    const MeshShape mesh = MeshShape::mesh(widths);
    const MeshShape torus = MeshShape::torus(widths);
    Rng master(default_seed() + n * 100 + f);
    Accumulator mesh_lambs, torus_lambs, mesh_secs, torus_secs;
    const int trials = scaled_trials(20);
    for (int t = 0; t < trials; ++t) {
      Rng rng(master.child_seed((std::uint64_t)t));
      // Same node-fault pattern on both topologies.
      const auto fault_ids = sample_without_replacement(mesh.size(), f, rng);
      FaultSet mesh_faults(mesh);
      FaultSet torus_faults(torus);
      for (NodeId id : fault_ids) {
        mesh_faults.add_node(id);
        torus_faults.add_node(id);
      }
      const auto orders = ascending_rounds(2, 2);
      const GenericLambResult on_mesh = generic_lamb(mesh, mesh_faults, orders);
      const GenericLambResult on_torus =
          generic_lamb(torus, torus_faults, orders);
      mesh_lambs.add((double)on_mesh.lambs.size());
      torus_lambs.add((double)on_torus.lambs.size());
      mesh_secs.add((double)on_mesh.num_sec);
      torus_secs.add((double)on_torus.num_sec);
    }
    table.print_row({std::to_string(n) + "x" + std::to_string(n),
                     expt::TableWriter::integer(f),
                     expt::TableWriter::num(mesh_lambs.mean(), 2),
                     expt::TableWriter::num(torus_lambs.mean(), 2),
                     expt::TableWriter::num(mesh_secs.mean(), 1),
                     expt::TableWriter::num(torus_secs.mean(), 1)});
  }
  std::printf(
      "\nWrap links pay: the torus needs consistently fewer lambs at equal\n"
      "fault sets (often none where the mesh loses corners), at the price\n"
      "of more equivalence classes (routes differentiate by wrap\n"
      "direction) and of the torus's own deadlock-avoidance needs beyond\n"
      "this paper's scope.\n");
  return 0;
}
