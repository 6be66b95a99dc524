// lambmesh — command-line front end for the lamb fault-tolerance library.
//
// Subcommands:
//   solve     read (or generate) a fault set, compute a lamb set, emit a
//             document with `lamb` lines appended
//   verify    brute-force check that a document's lamb set is valid
//   info      partition / reachability diagnostics for a fault set
//   simulate  run survivor traffic through the wormhole simulator
//
// Examples:
//   lambmesh_cli solve --geometry 32x32x32 --random-faults 983 --seed 7
//                      --output config.lamb
//   lambmesh_cli verify --input config.lamb
//   lambmesh_cli simulate --input config.lamb --messages 500 --pattern hotspot
//
// Documents use the text format of src/io/text_format.hpp. The solver
// honors existing `lamb` lines in the input as predetermined lambs
// (monotone reconfiguration, paper Section 7).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "core/lamb.hpp"
#include "io/cli_args.hpp"
#include "core/verifier.hpp"
#include "generic/generic_solver.hpp"
#include "io/text_format.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"
#include "wormhole/traffic.hpp"

using namespace lamb;

namespace {

using Args = io::CliArgs;

constexpr io::Command kCommands[] = {
    {"solve", "compute a lamb set; emit the document with lamb lines"},
    {"verify", "brute-force check of a document's lamb set"},
    {"info", "partition / reachability diagnostics for a fault set"},
    {"simulate", "run survivor traffic through the wormhole simulator"},
};
constexpr unsigned kSolve = 1, kSimulate = 8;

constexpr io::Flag kFlags[] = {
    {"geometry", "WxH..", io::kAllCommands,
     "fault-free mesh, e.g. 32x32x32 (mesh), 8x8t (torus)"},
    {"input", "FILE", io::kAllCommands, "document in the io text format"},
    {"random-faults", "N", io::kAllCommands, "add N random node faults (0)"},
    {"seed", "S", io::kAllCommands, "seed for faults and traffic"},
    {"rounds", "K", io::kAllCommands, "routing rounds (2)"},
    {"solver", "NAME", kSolve, "lamb1 | lamb2 | lamb2-exact | generic (lamb1)"},
    {"output", "FILE", kSolve, "write the document here (stdout)"},
    {"messages", "N", kSimulate, "messages (500)"},
    {"flits", "F", kSimulate, "flits per message (8)"},
    {"vcs", "V", kSimulate, "virtual channels per link (rounds)"},
    {"buffers", "B", kSimulate, "flit buffers per channel (4)"},
    {"pattern", "NAME", kSimulate,
     "uniform | transpose | bitrev | hotspot (uniform)"},
};

constexpr io::CliSpec kCli{kCommands, kFlags,
                           "Every command reads --input FILE or --geometry."};

// Loads or synthesizes the (shape, faults, predetermined lambs) triple.
io::Document load_document(const Args& args) {
  io::Document doc;
  if (args.has("input")) {
    doc = io::parse_file(args.get("input"));
  } else if (args.has("geometry")) {
    doc.shape = std::make_unique<MeshShape>(io::parse_geometry(args.get("geometry")));
    doc.faults = std::make_unique<FaultSet>(*doc.shape);
  } else {
    throw io::ArgError("need --input or --geometry");
  }
  const long random_faults = args.get_long("random-faults", 0, 0);
  const NodeId good = doc.faults->num_good_nodes();
  if (random_faults > good) {
    throw io::ArgError(std::to_string(random_faults) +
                       " random node faults do not fit " +
                       doc.shape->to_string() + " (" + std::to_string(good) +
                       " good nodes)");
  }
  if (random_faults > 0) {
    Rng rng((std::uint64_t)args.get_long("seed", (long)default_seed()));
    long added = 0;
    while (added < random_faults) {
      const NodeId id = (NodeId)rng.below((std::uint64_t)doc.shape->size());
      if (doc.faults->node_faulty(id)) continue;
      doc.faults->add_node(id);
      ++added;
    }
  }
  return doc;
}

MultiRoundOrder rounds_of(const Args& args, int dim) {
  return ascending_rounds(dim, args.get_int("rounds", 2));
}

int cmd_solve(const Args& args) {
  io::Document doc = load_document(args);
  const std::string solver = args.get("solver", "lamb1");
  const MultiRoundOrder orders = rounds_of(args, doc.shape->dim());

  std::vector<NodeId> lambs;
  if (solver == "generic" || doc.shape->wraps()) {
    if (!doc.lambs.empty()) {
      std::fprintf(stderr,
                   "warning: generic solver ignores predetermined lambs\n");
    }
    lambs = generic_lamb(*doc.shape, *doc.faults, orders).lambs;
  } else {
    LambOptions options;
    options.orders = orders;
    options.predetermined = doc.lambs;
    LambResult result;
    if (solver == "lamb1") {
      result = lamb1(*doc.shape, *doc.faults, options);
    } else if (solver == "lamb2") {
      result = lamb2(*doc.shape, *doc.faults, options);
    } else if (solver == "lamb2-exact") {
      result = lamb2(*doc.shape, *doc.faults, options, /*exact=*/true);
    } else {
      throw io::ArgError("unknown solver " + solver);
    }
    lambs = result.lambs;
    std::fprintf(stderr,
                 "solve: %s, f=%lld, p=%lld SES, q=%lld DES, cover weight "
                 "%.1f, %zu lambs\n",
                 doc.shape->to_string().c_str(), (long long)doc.faults->f(),
                 (long long)result.stats.p, (long long)result.stats.q,
                 result.stats.cover_weight, lambs.size());
  }

  const std::string out_path = args.get("output");
  if (out_path.empty()) {
    io::write(std::cout, *doc.shape, *doc.faults, &lambs);
  } else {
    io::write_file(out_path, *doc.shape, *doc.faults, &lambs);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const io::Document doc = load_document(args);
  const MultiRoundOrder orders = rounds_of(args, doc.shape->dim());
  const UnreachableCount bad = count_unreachable_survivor_pairs(
      *doc.shape, *doc.faults, orders, doc.lambs, 4);
  if (bad.pairs == 0) {
    std::printf("VALID: %zu lambs, %lld survivors all mutually %zu-round "
                "reachable\n",
                doc.lambs.size(),
                (long long)(doc.faults->num_good_nodes() -
                            (std::int64_t)doc.lambs.size()),
                orders.size());
    return 0;
  }
  std::printf("INVALID: %lld unreachable survivor pair(s), e.g.",
              (long long)bad.pairs);
  auto print_point = [&](NodeId id) {
    const Point p = doc.shape->point(id);
    for (int j = 0; j < doc.shape->dim(); ++j) {
      std::printf("%c%d", j == 0 ? '(' : ',', p[j]);
    }
    std::printf(")");
  };
  for (const auto& [v, w] : bad.sample) {
    std::printf(" ");
    print_point(v);
    std::printf("->");
    print_point(w);
  }
  std::printf("\n");
  return 1;
}

int cmd_info(const Args& args) {
  const io::Document doc = load_document(args);
  const MultiRoundOrder orders = rounds_of(args, doc.shape->dim());
  std::printf("shape:       %s (%lld nodes, %lld directed links)\n",
              doc.shape->to_string().c_str(), (long long)doc.shape->size(),
              (long long)doc.shape->num_links());
  std::printf("faults:      %lld node, %lld link (f = %lld)\n",
              (long long)doc.faults->num_node_faults(),
              (long long)doc.faults->num_link_faults(),
              (long long)doc.faults->f());
  if (doc.shape->wraps()) {
    std::printf("torus: use the generic solver (rectangular partitions do "
                "not apply)\n");
    return 0;
  }
  const ReachComputation reach =
      compute_reachability(*doc.shape, *doc.faults, orders);
  std::printf("partitions:  p = %lld SES, q = %lld DES (bound %lld)\n",
              (long long)reach.first_ses().size(),
              (long long)reach.last_des().size(),
              (long long)theorem64_bound(*doc.shape, doc.faults->f(),
                                         DimOrder::ascending(doc.shape->dim())));
  std::printf("R^(k):       density %.4f, %lld zero entries\n",
              reach.rk.density(),
              (long long)(reach.rk.rows() * reach.rk.cols() -
                          reach.rk.count_ones()));
  return 0;
}

int cmd_simulate(const Args& args) {
  const io::Document doc = load_document(args);
  const MultiRoundOrder orders = rounds_of(args, doc.shape->dim());
  Rng rng((std::uint64_t)args.get_long("seed", (long)default_seed()));

  wormhole::TrafficConfig tc;
  tc.num_messages = args.get_long("messages", 500);
  tc.message_flits = args.get_int("flits", 8);
  const std::string pattern = args.get("pattern", "uniform");
  if (pattern == "uniform") {
    tc.pattern = wormhole::Pattern::kUniform;
  } else if (pattern == "transpose") {
    tc.pattern = wormhole::Pattern::kTranspose;
  } else if (pattern == "bitrev") {
    tc.pattern = wormhole::Pattern::kBitReversal;
  } else if (pattern == "hotspot") {
    tc.pattern = wormhole::Pattern::kHotSpot;
  } else {
    throw io::ArgError("unknown pattern " + pattern);
  }

  wormhole::RouteCache routes(*doc.shape, *doc.faults, orders);
  const auto traffic = wormhole::generate_traffic(*doc.shape, *doc.faults,
                                                  doc.lambs, routes, tc, rng);
  wormhole::SimConfig config;
  config.vcs_per_link = args.get_int("vcs", (int)orders.size());
  config.buffer_flits = args.get_int("buffers", 4);
  wormhole::Network net(*doc.shape, *doc.faults, config);
  for (const auto& m : traffic.messages) net.submit(m);
  const auto result = net.run();

  std::printf("messages:   %lld submitted, %lld unroutable, %lld delivered\n",
              (long long)result.total_messages, (long long)traffic.unroutable,
              (long long)result.delivered);
  std::printf("cycles:     %lld (deadlock: %s)\n", (long long)result.cycles,
              result.deadlocked ? "YES" : "no");
  std::printf("latency:    avg %.1f max %.0f\n", result.latency.mean(),
              result.latency.max());
  std::printf("turns:      avg %.2f max %.0f\n", result.turns.mean(),
              result.turns.max());
  std::printf("throughput: %.2f flits/cycle\n", result.flit_throughput);
  return result.deadlocked ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = io::parse_cli(argc, argv, kCli);
  try {
    if (args.command() == "solve") return cmd_solve(args);
    if (args.command() == "verify") return cmd_verify(args);
    if (args.command() == "info") return cmd_info(args);
    return cmd_simulate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
