// Ablation: the open question of paper Section 1 — how many good nodes
// must be INACTIVATED to make fault regions rectangular (the
// preconditioning that region-based routing schemes like [4] require,
// with non-overlapping fault rings), versus how many good nodes the lamb
// method sacrifices. Inactivated nodes are strictly worse than lambs
// (they cannot even route). Measured for uniform random faults and for
// clustered faults (the regime favourable to the region model).
#include <cmath>
#include <cstdio>

#include "baseline/patterns.hpp"
#include "baseline/regions.hpp"
#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

void run_case(const MeshShape& shape, bool clustered, int trials,
              expt::TableWriter& table) {
  Rng master(default_seed() ^ (shape.size() * (clustered ? 3 : 7)));
  Accumulator lambs, inact_sep1, inact_sep2, fcount;
  for (int t = 0; t < trials; ++t) {
    Rng rng(master.child_seed((std::uint64_t)t));
    const FaultSet faults =
        clustered
            ? baseline::clustered_faults(shape, /*clusters=*/6, /*max_side=*/3,
                                         rng)
            : FaultSet::random_nodes(
                  shape, (std::int64_t)std::llround(shape.size() * 0.02), rng);
    fcount.add((double)faults.f());
    lambs.add((double)lamb1(shape, faults, {}).size());
    inact_sep1.add(
        (double)baseline::rectangular_fault_regions(shape, faults, 1)
            .inactivated);
    inact_sep2.add(
        (double)baseline::rectangular_fault_regions(shape, faults, 2)
            .inactivated);
  }
  table.print_row({shape.to_string(), clustered ? "clustered" : "uniform",
                   expt::TableWriter::num(fcount.mean(), 1),
                   expt::TableWriter::num(lambs.mean(), 1),
                   expt::TableWriter::num(inact_sep1.mean(), 1),
                   expt::TableWriter::num(inact_sep2.mean(), 1)});
}

}  // namespace

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 4 (paper Section 1 open question)",
      "lambs vs inactivated nodes for rectangular fault regions",
      "2% uniform faults / clustered faults; separation 1 = disjoint "
      "regions, 2 = disjoint fault rings (Boppana-Chalasani requirement)");
  expt::TableWriter table({"mesh", "workload", "avg_f", "lambs",
                           "inact(sep1)", "inact(sep2)"}, 14);
  table.print_header();
  run_case(MeshShape::cube(2, 32), false, scaled_trials(60), table);
  run_case(MeshShape::cube(2, 32), true, scaled_trials(60), table);
  run_case(MeshShape::cube(2, 64), false, scaled_trials(30), table);
  run_case(MeshShape::cube(3, 16), false, scaled_trials(30), table);
  run_case(MeshShape::cube(3, 16), true, scaled_trials(30), table);
  std::printf(
      "\nIn 3D, region merging cascades and inactivation dwarfs the lamb\n"
      "count by orders of magnitude. In small 2D meshes merely-disjoint\n"
      "regions (sep 1) are competitive, but the disjoint-fault-ring\n"
      "requirement of [4] (sep 2) already costs several times the lamb\n"
      "count — and an inactivated node cannot even route, while a lamb\n"
      "still carries traffic.\n");
  return 0;
}
