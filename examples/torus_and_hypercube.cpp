// Section 7 topologies: the lamb method beyond plain meshes.
//
//   * Hypercube M_6(2): the rectangular partition machinery applies
//     directly (e-cube routing is ascending dimension order).
//   * 8x8 torus: wrap-around links break the rectangular-partition
//     argument (route direction depends on the destination), so the
//     generic solver computes exact source/destination equivalence
//     CLASSES from explicit reachability sets and runs the same WVC
//     reduction — the paper's "other topologies" recipe.
//
// The same fault pattern is solved on the mesh and on the torus to show
// the wrap links paying off: a fault wall that amputates a mesh column
// costs nothing on the torus.
#include <cstdio>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "generic/generic_solver.hpp"
#include "io/cli_args.hpp"
#include "support/rng.hpp"

using namespace lamb;

int main(int argc, char** argv) {
  io::parse_cli(argc, argv, {});
  // --- Hypercube ---
  {
    const MeshShape cube = MeshShape::hypercube(6);  // 64 nodes
    Rng rng(11);
    const FaultSet faults = FaultSet::random_nodes(cube, 6, rng);
    const LambResult result = lamb1(cube, faults, {});
    std::printf("hypercube %s: %lld faults -> %lld lambs (valid: %s)\n",
                cube.to_string().c_str(), (long long)faults.f(),
                (long long)result.size(),
                is_lamb_set(cube, faults, ascending_rounds(6, 2), result.lambs)
                    ? "yes"
                    : "NO");
  }

  // --- Mesh vs torus under a fault wall ---
  const std::vector<Coord> widths{8, 8};
  auto wall = [](const MeshShape& s) {
    FaultSet f(s);
    for (Coord y = 0; y < 8; ++y) {
      if (y != 3) f.add_node(Point{1, y});  // near-complete column wall
    }
    return f;
  };
  {
    const MeshShape mesh = MeshShape::mesh(widths);
    const FaultSet faults = wall(mesh);
    const GenericLambResult result =
        generic_lamb(mesh, faults, ascending_rounds(2, 2));
    std::printf("mesh  %s + wall: %zu lambs, %lld SECs, %lld DECs\n",
                mesh.to_string().c_str(), result.lambs.size(), (long long)result.num_sec,
                (long long)result.num_dec);
  }
  {
    const MeshShape torus = MeshShape::torus(widths);
    const FaultSet faults = wall(torus);
    const GenericLambResult result =
        generic_lamb(torus, faults, ascending_rounds(2, 2));
    std::printf("torus %s + wall: %zu lambs, %lld SECs, %lld DECs (valid: %s)\n",
                torus.to_string().c_str(), result.lambs.size(), (long long)result.num_sec,
                (long long)result.num_dec,
                is_lamb_set(torus, faults, ascending_rounds(2, 2), result.lambs)
                    ? "yes"
                    : "NO");
  }

  // --- Random faults on the torus ---
  {
    const MeshShape torus = MeshShape::torus(widths);
    Rng rng(12);
    const FaultSet faults = FaultSet::random_nodes(torus, 6, rng);
    const GenericLambResult result =
        generic_lamb(torus, faults, ascending_rounds(2, 2));
    std::printf("torus %s, %lld random faults -> %zu lambs (valid: %s)\n",
                torus.to_string().c_str(), (long long)faults.f(),
                result.lambs.size(),
                is_lamb_set(torus, faults, ascending_rounds(2, 2), result.lambs)
                    ? "yes"
                    : "NO");
  }
  return 0;
}
