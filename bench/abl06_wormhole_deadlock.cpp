// Ablation: requirement (iii) of the paper — deadlock freedom with a
// virtual channel per routing round. The same adversarial ring of long
// 2-round messages deadlocks with one virtual channel (both rounds share
// a channel, closing a cyclic wait) and drains with two. Random heavy
// traffic is also swept across VC counts and buffer depths.
#include <cstdio>

#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "wormhole/network.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;
using wormhole::Hop;
using wormhole::Message;

namespace {

// Four long messages whose round-1 legs form the sides of a square and
// whose round-2 legs turn onto the next side (see wormhole_test.cpp).
std::vector<Message> ring_messages(const MeshShape& shape) {
  std::vector<Message> msgs;
  auto leg = [&](Point from, Point mid, Point to, std::int64_t id) {
    Message m;
    m.id = id;
    m.route.src = shape.index(from);
    m.route.dst = shape.index(to);
    Point at = from;
    auto extend = [&](Point tgt, int round) {
      for (int dim = 0; dim < 2; ++dim) {
        while (at[dim] != tgt[dim]) {
          const Dir dir = tgt[dim] > at[dim] ? Dir::Pos : Dir::Neg;
          m.route.hops.push_back(Hop{dim, dir, round});
          at[dim] += (Coord)dir_sign(dir);
        }
      }
    };
    extend(mid, 0);
    extend(to, 1);
    m.length_flits = 24;
    m.inject_cycle = 0;
    return m;
  };
  msgs.push_back(leg(Point{1, 1}, Point{4, 1}, Point{4, 4}, 0));
  msgs.push_back(leg(Point{4, 1}, Point{4, 4}, Point{1, 4}, 1));
  msgs.push_back(leg(Point{4, 4}, Point{1, 4}, Point{1, 1}, 2));
  msgs.push_back(leg(Point{1, 4}, Point{1, 1}, Point{4, 1}, 3));
  return msgs;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kTelemetryFlag};
  io::parse_cli(argc, argv, {.flags = kFlags});
  expt::print_banner(
      "Ablation 6 (paper requirements (i)+(iii))",
      "deadlock: virtual channels per round vs shared channels",
      "adversarial message ring + saturating random traffic, 2-round XY");

  const MeshShape shape = MeshShape::cube(2, 6);
  const FaultSet faults(shape);
  expt::TableWriter ring_table({"vcs", "buffers", "deadlock", "delivered"});
  std::printf("Adversarial ring of four 24-flit messages:\n");
  ring_table.print_header();
  for (int vcs : {1, 2}) {
    for (int buffers : {1, 2, 4}) {
      wormhole::SimConfig config;
      config.vcs_per_link = vcs;
      config.buffer_flits = buffers;
      config.deadlock_threshold = 500;
      config.telemetry = obs::default_telemetry();
      wormhole::Network net(shape, faults, config);
      for (const Message& m : ring_messages(shape)) net.submit(m);
      const auto result = net.run();
      ring_table.print_row({expt::TableWriter::integer(vcs),
                            expt::TableWriter::integer(buffers),
                            result.deadlocked ? "YES" : "no",
                            expt::TableWriter::integer(result.delivered)});
    }
  }

  std::printf("\nSaturating uniform random traffic on a faulty 8x8 mesh:\n");
  const MeshShape big = MeshShape::cube(2, 8);
  Rng frng(default_seed());
  const FaultSet bigf = FaultSet::random_nodes(big, 4, frng);
  const LambResult lambs = lamb1(big, bigf, {});
  wormhole::RouteCache routes(big, bigf, ascending_rounds(2, 2));
  expt::TableWriter rand_table({"vcs", "trials", "deadlocks", "avg_cycles"});
  rand_table.print_header();
  for (int vcs : {1, 2}) {
    int deadlocks = 0;
    double cycles = 0;
    const int trials = scaled_trials(10);
    for (int t = 0; t < trials; ++t) {
      Rng rng(default_seed() + 100 + (std::uint64_t)t);
      wormhole::TrafficConfig tc;
      tc.num_messages = 120;
      tc.message_flits = 16;
      tc.injection_gap = 0.25;
      const auto traffic =
          generate_traffic(big, bigf, lambs.lambs, routes, tc, rng);
      wormhole::SimConfig config;
      config.vcs_per_link = vcs;
      config.buffer_flits = 2;
      config.deadlock_threshold = 500;
      config.telemetry = obs::default_telemetry();
      wormhole::Network net(big, bigf, config);
      for (const Message& m : traffic.messages) net.submit(m);
      const auto result = net.run();
      deadlocks += result.deadlocked ? 1 : 0;
      cycles += (double)result.cycles;
    }
    rand_table.print_row({expt::TableWriter::integer(vcs),
                          expt::TableWriter::integer(trials),
                          expt::TableWriter::integer(deadlocks),
                          expt::TableWriter::num(cycles / trials, 0)});
  }
  std::printf(
      "\nWith one VC per round (vcs = k = 2) no configuration can deadlock\n"
      "(Dally & Seitz acyclic channel dependence per round); sharing one\n"
      "VC across rounds deadlocks under adversarial and saturating load.\n");
  return 0;
}
