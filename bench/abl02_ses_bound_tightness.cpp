// Ablation: tightness of the Theorem 6.4 partition-size bound. The
// Proposition 6.5 constructions (node-fault and link-fault variants) make
// Find-SES-Partition emit exactly B(d, f) sets; the diagonal placement
// meets the coarse (2d-1)f+1 bound; random faults stay far below both
// (the gap Figure 25 shows).
#include <cstdio>

#include "core/partition.hpp"
#include "core/theory.hpp"
#include "expt/table.hpp"
#include "expt/trial.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Ablation 2 (Prop 6.5 / Thm 6.4)",
                     "SES partition size: worst case vs random faults",
                     "B(d,f) tightness constructions");
  expt::TableWriter table({"mesh", "f", "variant", "#SES", "B(d,f)",
                           "(2d-1)f+1"});
  table.print_header();

  struct Case {
    int d;
    Coord n;
    std::int64_t f;
  };
  for (const Case c : {Case{2, 9, 4}, Case{2, 33, 16}, Case{3, 9, 12},
                       Case{3, 11, 60}, Case{4, 5, 20}}) {
    const MeshShape shape = MeshShape::cube(c.d, c.n);
    const DimOrder order = DimOrder::ascending(c.d);
    for (const bool links : {false, true}) {
      const FaultSet faults = prop65_faults(shape, c.f, links);
      const EquivPartition ses = find_ses_partition(shape, faults, order);
      table.print_row({shape.to_string(), expt::TableWriter::integer(c.f),
                       links ? "prop65-link" : "prop65-node",
                       expt::TableWriter::integer(ses.size()),
                       expt::TableWriter::integer(
                           theorem64_bound(shape, c.f, order)),
                       expt::TableWriter::integer(
                           coarse_partition_bound(c.d, c.f))});
    }
    // Random faults of the same count, for contrast.
    const expt::TrialSummary random = expt::run_lamb_trials(
        shape, c.f, scaled_trials(20), default_seed() + c.n);
    table.print_row(
        {shape.to_string(), expt::TableWriter::integer(c.f), "random-avg",
         expt::TableWriter::num(random.ses.mean(), 1),
         expt::TableWriter::integer(theorem64_bound(shape, c.f, order)),
         expt::TableWriter::integer(coarse_partition_bound(c.d, c.f))});
  }

  std::printf("\nDiagonal placement meets the coarse bound exactly:\n");
  expt::TableWriter diag({"mesh", "f", "#SES", "#DES", "(2d-1)f+1"});
  diag.print_header();
  for (const Case c : {Case{2, 11, 5}, Case{3, 11, 5}, Case{4, 9, 4}}) {
    const MeshShape shape = MeshShape::cube(c.d, c.n);
    const FaultSet faults = diagonal_faults(shape, c.f);
    diag.print_row(
        {shape.to_string(), expt::TableWriter::integer(c.f),
         expt::TableWriter::integer(
             find_ses_partition(shape, faults, DimOrder::ascending(c.d)).size()),
         expt::TableWriter::integer(
             find_des_partition(shape, faults, DimOrder::ascending(c.d)).size()),
         expt::TableWriter::integer(coarse_partition_bound(c.d, c.f))});
  }
  return 0;
}
