// Set-valued ("spanning tree") reachability, the O(N)-per-source approach
// the paper mentions in Section 4 and footnote 7. Used for:
//   * brute-force verification of lamb sets and of SES/DES partitions,
//   * choosing intermediate nodes for k-round routes (wormhole RouteCache),
//   * the generic-topology solver.
#pragma once

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "support/bitset.hpp"

namespace lamb {

class FloodOracle {
 public:
  FloodOracle(const MeshShape& shape, const FaultSet& faults);

  const MeshShape& shape() const { return *shape_; }

  // { w : w is (F, pi)-reachable from v }.
  Bits reach1_from(const Point& v, const DimOrder& order) const;
  // Union of reach1_from over all (good) members of `sources`: the
  // per-dimension expansion composes, so one set-valued flood costs the
  // same as a single-source flood with a dense frontier. This is the
  // engine of the "spanning tree" k-round backend (paper footnote 7).
  Bits reach1_from_set(const Bits& sources, const DimOrder& order) const;
  // { u : u can (F, pi)-reach w }.
  Bits reach1_to(const Point& w, const DimOrder& order) const;
  // { w : w is (k, F, pi_vec)-reachable from v } (Definition 2.5.2).
  Bits reach_from(const Point& v, const MultiRoundOrder& orders) const;

 private:
  // Forward expansion: every coordinate b on the dim-j line through `p`
  // such that the directed dim-j travel p[j] -> b is fault-free; bits are
  // set in `out` at the corresponding node ids.
  void expand_line_from(const Point& p, int j, Bits* out) const;
  // Backward expansion: every coordinate a such that travel a -> p[j] is
  // fault-free.
  void expand_line_to(const Point& p, int j, Bits* out) const;
  // One per-dimension step of a flood: expands every member of `frontier`
  // along dimension j (forward or backward) and returns the union. Dense
  // frontiers fan out over the par::parallel_for pool, each band OR-merging
  // a private bitset — bitwise OR commutes, so the result is identical at
  // any thread count.
  Bits expand_dimension(const Bits& frontier, int j, bool forward) const;

  const MeshShape* shape_;
  const FaultSet* faults_;
};

}  // namespace lamb
