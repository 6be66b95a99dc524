// Ablation: route turns (paper requirement (iv) and the introduction's
// "constant times n turns" remark).
//
// Part 1 (comb pattern): fault-ring routing crosses M_2(n) only by
// snaking around every tooth — Theta(n) turns. The comb is also a
// worst case for the lamb method: 2-round XY reachability shatters, and
// Lamb1 sacrifices nearly everything. Both columns are reported; the
// paper is explicit that neither approach dominates everywhere.
//
// Part 2 (random faults, the paper's model): lamb routes between
// survivors never exceed k(d-1) + (k-1) turns (3 in 2D with k = 2),
// independent of n, while fault-ring detours around grown regions add
// turns with every region skirted.
#include <algorithm>
#include <cstdio>

#include "baseline/fault_ring.hpp"
#include "baseline/patterns.hpp"
#include "baseline/regions.hpp"
#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "wormhole/route_cache.hpp"

using namespace lamb;

namespace {

std::vector<NodeId> survivors_of(const MeshShape& shape, const FaultSet& faults,
                                 const std::vector<NodeId>& lambs) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (faults.node_good(id) &&
        !std::binary_search(lambs.begin(), lambs.end(), id)) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 5 (paper Section 1, turns)",
      "fault-ring routing turns vs lamb-route turns",
      "comb pattern (ring worst case for turns, lamb worst case for "
      "sacrifice) and 2% random faults (the paper's model)");

  std::printf("Comb pattern, west-to-east route:\n");
  expt::TableWriter comb_table(
      {"n", "ring_turns", "ring_hops", "lambs", "good_nodes"});
  comb_table.print_header();
  for (Coord n : {9, 17, 25, 33, 41}) {
    const MeshShape shape = MeshShape::cube(2, n);
    const FaultSet faults = baseline::comb_faults(shape);
    const auto model = baseline::rectangular_fault_regions(shape, faults, 1);
    const baseline::FaultRingRouter router(shape, model.regions);
    const auto ring = router.route(Point{0, (Coord)(n / 2)},
                                   Point{(Coord)(n - 1), (Coord)(n / 2)});
    const LambResult lambs = lamb1(shape, faults, {});
    comb_table.print_row(
        {expt::TableWriter::integer(n),
         ring ? expt::TableWriter::integer(ring->turns) : "stuck",
         ring ? expt::TableWriter::integer(ring->hops()) : "-",
         expt::TableWriter::integer(lambs.size()),
         expt::TableWriter::integer(faults.shape().size() - faults.f())});
  }
  std::printf(
      "-> ring turns grow ~linearly in n (the paper's Theta(n) example);\n"
      "   the comb is simultaneously the lamb method's worst case: almost\n"
      "   every good node must be sacrificed.\n\n");

  std::printf("2%% uniform random faults (the paper's fault model):\n");
  expt::TableWriter rand_table({"n", "lambs", "lamb_avg_turns",
                                "lamb_max_turns", "ring_avg_turns",
                                "ring_max_turns"},
                               15);
  rand_table.print_header();
  for (Coord n : {16, 32, 64}) {
    const MeshShape shape = MeshShape::cube(2, n);
    Rng rng(default_seed() + n);
    const FaultSet faults =
        FaultSet::random_nodes(shape, shape.size() / 50, rng);
    const LambResult lambs = lamb1(shape, faults, {});
    wormhole::RouteCache routes(shape, faults, ascending_rounds(2, 2));
    const auto survivors = survivors_of(shape, faults, lambs.lambs);
    Accumulator lamb_turns;
    for (int t = 0; t < 300 && survivors.size() >= 2; ++t) {
      const NodeId a = survivors[rng.below(survivors.size())];
      const NodeId b = survivors[rng.below(survivors.size())];
      if (a == b) continue;
      if (const auto route = routes.build(a, b, rng)) {
        lamb_turns.add((double)route->turns());
      }
    }
    // Fault-ring baseline on the grown regions (separation 2 so rings are
    // disjoint, as [4] requires).
    const auto model = baseline::rectangular_fault_regions(shape, faults, 2);
    const baseline::FaultRingRouter router(shape, model.regions);
    Accumulator ring_turns;
    for (int t = 0; t < 300; ++t) {
      const Point a = shape.point(survivors[rng.below(survivors.size())]);
      const Point b = shape.point(survivors[rng.below(survivors.size())]);
      bool inside = false;
      for (const RectSet& r : model.regions) {
        if (r.contains(a) || r.contains(b)) inside = true;
      }
      if (inside) continue;
      if (const auto route = router.route(a, b)) {
        ring_turns.add((double)route->turns);
      }
    }
    rand_table.print_row({expt::TableWriter::integer(n),
                          expt::TableWriter::integer(lambs.size()),
                          expt::TableWriter::num(lamb_turns.mean(), 2),
                          expt::TableWriter::integer(
                              (std::int64_t)lamb_turns.max()),
                          expt::TableWriter::num(ring_turns.mean(), 2),
                          expt::TableWriter::integer(
                              (std::int64_t)ring_turns.max())});
  }
  std::printf(
      "-> lamb-route turns are bounded by k(d-1)+(k-1) = 3 independent of\n"
      "   n; fault-ring maxima grow as routes skirt more regions.\n");
  return 0;
}
