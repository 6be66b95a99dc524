// Figure 25: maximum and average number of SES's found by the algorithm
// on the 32x32x32 mesh vs the percentage of random faults, together with
// the Theorem 6.4 upper bound (which the paper shows is considerably
// better than the coarse (2d-1)f + 1 = 5f + 1 bound). The paper also
// notes that DES counts track SES counts within 0.08% (avg) / 1.3% (max)
// — we print both so the claim is checkable.
#include <cmath>
#include <cstdio>

#include "core/partition.hpp"
#include "expt/table.hpp"
#include "expt/trial.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner("Figure 25", "SES count vs fault % on the 32^3 mesh",
                     "M_3(32), f% in {0.5..3.0}, 1000 trials in the paper");
  const MeshShape shape = MeshShape::cube(3, 32);
  const int trials = scaled_trials(25);
  expt::TableWriter table({"fault%", "f", "avg_SES", "max_SES", "avg_DES",
                           "max_DES", "Thm6.4", "5f+1"});
  table.print_header();
  for (double pct : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
    const std::int64_t f =
        (std::int64_t)std::llround((double)shape.size() * pct / 100.0);
    const expt::TrialSummary s =
        expt::run_lamb_trials(shape, f, trials, default_seed());
    table.print_row(
        {expt::TableWriter::num(pct, 1), expt::TableWriter::integer(f),
         expt::TableWriter::num(s.ses.mean(), 1),
         expt::TableWriter::integer((std::int64_t)s.ses.max()),
         expt::TableWriter::num(s.des.mean(), 1),
         expt::TableWriter::integer((std::int64_t)s.des.max()),
         expt::TableWriter::integer(
             theorem64_bound(shape, f, DimOrder::ascending(3))),
         expt::TableWriter::integer(coarse_partition_bound(3, f))});
  }
  return 0;
}
