// Figure 19: "additional damage" (#lambs as a percentage of #faults) vs
// the percentage of random faults, 2D (32x32) vs 3D (32^3). Paper
// reference points at 3%: 30.9% (2D) vs 6.88% (3D) — the 3D mesh wastes
// far fewer good nodes per fault.
#include <cstdio>

#include "expt/experiments.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 19", "additional damage %lambs/%faults, 2D vs 3D",
                     "M_2(32) and M_3(32), f% in {0.5..3.0}");
  const std::vector<double> percents{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  const auto rows2 = expt::percent_sweep(MeshShape::cube(2, 32), percents,
                                         scaled_trials(500), default_seed());
  const auto rows3 = expt::percent_sweep(MeshShape::cube(3, 32), percents,
                                         scaled_trials(25), default_seed());
  expt::TableWriter table({"fault%", "damage2D%", "damage3D%"});
  table.print_header();
  for (std::size_t i = 0; i < percents.size(); ++i) {
    const auto& s2 = rows2[i].summary;
    const auto& s3 = rows3[i].summary;
    table.print_row(
        {expt::TableWriter::num(percents[i], 1),
         expt::TableWriter::num(100.0 * s2.lambs.mean() / (double)s2.f, 2),
         expt::TableWriter::num(100.0 * s3.lambs.mean() / (double)s3.f, 2)});
  }
  std::printf("\npaper at 3.0%%: 2D 30.9%%, 3D 6.88%%\n");
  return 0;
}
