// Fault explorer: renders the lamb algorithm's intermediate objects for
// a 2D mesh as ASCII art — the fault set, the SES and DES partitions
// (each rectangle gets a letter, exactly like the paper's Figures 3-4),
// the relevant candidate sets, and the final lamb set. Run with no
// arguments for the paper's 12x12 example, or pass a fault-set file in
// the io text format:
//
//   ./fault_explorer                 # paper example
//   ./fault_explorer my_faults.txt
#include <cstdio>
#include <memory>

#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "io/cli_args.hpp"
#include "io/text_format.hpp"

using namespace lamb;

namespace {

char set_letter(std::int64_t index) {
  static const char alphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  return alphabet[index % (sizeof(alphabet) - 1)];
}

void draw_partition(const MeshShape& shape, const FaultSet& faults,
                    const EquivPartition& part, const char* title) {
  std::printf("%s (%lld sets):\n", title, (long long)part.size());
  for (Coord y = 0; y < shape.width(1); ++y) {
    std::printf("  ");
    for (Coord x = 0; x < shape.width(0); ++x) {
      const Point p{x, y};
      if (faults.node_faulty(p)) {
        std::printf("# ");
        continue;
      }
      const std::int64_t idx = part.find(p);
      std::printf("%c ", idx >= 0 ? set_letter(idx) : '?');
    }
    std::printf("\n");
  }
  for (std::int64_t i = 0; i < part.size(); ++i) {
    const RectSet& s = part.sets[(std::size_t)i];
    std::printf("  %c = %-13s |%c| = %lld\n", set_letter(i),
                s.to_string(shape).c_str(), set_letter(i),
                (long long)s.size());
  }
}

void draw_lambs(const MeshShape& shape, const FaultSet& faults,
                const std::vector<NodeId>& lambs) {
  std::vector<char> is_lamb((std::size_t)shape.size(), 0);
  for (NodeId id : lambs) is_lamb[(std::size_t)id] = 1;
  std::printf("final configuration (# fault, L lamb, . survivor):\n");
  for (Coord y = 0; y < shape.width(1); ++y) {
    std::printf("  ");
    for (Coord x = 0; x < shape.width(0); ++x) {
      const Point p{x, y};
      char c = '.';
      if (faults.node_faulty(p)) {
        c = '#';
      } else if (is_lamb[(std::size_t)shape.index(p)]) {
        c = 'L';
      }
      std::printf("%c ", c);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {
      {"", "[FILE]", io::kAllCommands,
       "fault set in the io text format (default: paper Figure 2)"}};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  io::Document doc;
  if (!args.positionals().empty()) {
    try {
      doc = io::parse_file(args.positionals()[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    doc = io::parse_string(
        "mesh 12 12\n"
        "node 9 1\n"
        "node 11 6\n"
        "node 10 10\n");
    std::printf("(no input file: using the paper's Figure 2 example)\n\n");
  }
  const MeshShape& shape = *doc.shape;
  const FaultSet& faults = *doc.faults;
  if (shape.dim() != 2 || shape.wraps()) {
    std::fprintf(stderr, "fault_explorer draws 2D meshes only\n");
    return 2;
  }

  const DimOrder xy = DimOrder::ascending(2);
  const EquivPartition ses = find_ses_partition(shape, faults, xy);
  const EquivPartition des = find_des_partition(shape, faults, xy);
  draw_partition(shape, faults, ses, "SES partition (paper Figure 3)");
  std::printf("\n");
  draw_partition(shape, faults, des, "DES partition (paper Figure 4)");

  const LambResult result = lamb1(shape, faults, {});
  std::printf(
      "\nR^(2) zeros -> %lld relevant SES, %lld relevant DES; min-weight "
      "cover %.1f\n",
      (long long)result.stats.relevant_ses,
      (long long)result.stats.relevant_des, result.stats.cover_weight);
  std::printf("lambs (%lld):", (long long)result.size());
  for (NodeId id : result.lambs) {
    const Point p = shape.point(id);
    std::printf(" (%d,%d)", p[0], p[1]);
  }
  std::printf("\n\n");
  draw_lambs(shape, faults, result.lambs);
  return 0;
}
