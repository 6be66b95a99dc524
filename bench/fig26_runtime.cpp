// Figure 26: average running time of the full lamb algorithm vs the
// percentage of random faults, for the 32^3 3D mesh and the 181x181 2D
// mesh. SUBSTITUTION (see DESIGN.md): the paper ran C code on a 133 MHz
// IBM 7248 under AIX; absolute times on modern x86-64 are ~3 orders of
// magnitude smaller. The SHAPE is what reproduces: superlinear growth in
// f (the O(f^3) matrix phase dominating at higher fault counts) and the
// 3D mesh costing more than the 2D mesh of equal node count at the same
// fault percentage. Per-phase breakdown is printed to attribute the
// growth.
#include <cmath>
#include <cstdio>

#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

void sweep(const MeshShape& shape, int trials) {
  std::printf("--- %s ---\n", shape.to_string().c_str());
  expt::TableWriter table({"fault%", "f", "avg_ms", "partition_ms",
                           "matrices_ms", "cover_ms"});
  table.print_header();
  Rng master(default_seed() ^ shape.size());
  for (double pct : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
    const std::int64_t f =
        (std::int64_t)std::llround((double)shape.size() * pct / 100.0);
    Accumulator total, part, mats, cover;
    for (int t = 0; t < trials; ++t) {
      Rng rng(master.child_seed((std::uint64_t)t));
      const FaultSet faults = FaultSet::random_nodes(shape, f, rng);
      Stopwatch watch;
      const LambResult result = lamb1(shape, faults, {});
      total.add(watch.seconds());
      part.add(result.stats.seconds_partition);
      mats.add(result.stats.seconds_matrices);
      cover.add(result.stats.seconds_cover);
    }
    table.print_row({expt::TableWriter::num(pct, 1),
                     expt::TableWriter::integer(f),
                     expt::TableWriter::num(total.mean() * 1e3, 2),
                     expt::TableWriter::num(part.mean() * 1e3, 2),
                     expt::TableWriter::num(mats.mean() * 1e3, 2),
                     expt::TableWriter::num(cover.mean() * 1e3, 2)});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Figure 26", "average lamb-algorithm running time vs fault %",
      "M_3(32) and M_2(181); paper used a 133 MHz IBM 7248 (AIX), absolute "
      "values differ, shape reproduces");
  sweep(MeshShape::cube(3, 32), scaled_trials(20));
  sweep(MeshShape::cube(2, 181), scaled_trials(20));
  return 0;
}
