// Ablation: the Section 9 NP-hardness reduction in action. Builds the
// Theorem 9.1 gadget for small VERTEX COVER instances, runs Lamb1 on the
// gadget's fault set, extracts a vertex cover from the lamb set, and
// compares it to the instance's true minimum cover — the round trip the
// hardness proof formalizes.
#include <cstdio>

#include "core/lamb.hpp"
#include "expt/table.hpp"
#include "graph/general_wvc.hpp"
#include "io/cli_args.hpp"
#include "reduction/vc_gadget.hpp"
#include "support/rng.hpp"

using namespace lamb;

namespace {

WeightedGraph named_graph(const char* name) {
  if (std::string(name) == "path4") {
    WeightedGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    return g;
  }
  if (std::string(name) == "triangle") {
    WeightedGraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(0, 2);
    return g;
  }
  if (std::string(name) == "star5") {
    WeightedGraph g(5);
    for (int v = 1; v < 5; ++v) g.add_edge(0, v);
    return g;
  }
  // c4: a 4-cycle.
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  expt::print_banner(
      "Ablation 3 (paper Section 9)",
      "VERTEX COVER -> (3,2)-lamb gadget round trip",
      "column planes + non-edge planes on M_3(n), 2 rounds of XYZ");
  expt::TableWriter table({"graph", "n", "N", "faults", "lambs",
                           "cover_found", "cover_opt", "valid"});
  table.print_header();
  for (const char* name : {"triangle", "path4", "c4", "star5"}) {
    const WeightedGraph g = named_graph(name);
    const VcGadget gadget(g);
    const LambResult lambs = lamb1(gadget.shape(), gadget.faults(), {});
    const std::vector<int> cover = gadget.extract_cover(lambs.lambs);
    const auto opt = wvc_exact(g);
    table.print_row(
        {name, expt::TableWriter::integer(gadget.side()),
         expt::TableWriter::integer(gadget.shape().size()),
         expt::TableWriter::integer(gadget.faults().f()),
         expt::TableWriter::integer(lambs.size()),
         expt::TableWriter::integer((std::int64_t)cover.size()),
         expt::TableWriter::integer(opt ? (std::int64_t)opt->size() : -1),
         g.is_vertex_cover(cover) ? "yes" : "NO"});
  }
  std::printf(
      "\nEvery extracted set is a genuine vertex cover; with the structural\n"
      "gadget size the extracted cover can exceed the optimum by the\n"
      "approximation slack Theorem 9.1's epsilon-amplification removes.\n");
  return 0;
}
