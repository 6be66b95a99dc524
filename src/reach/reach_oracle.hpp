// O(d)-per-query 1-round reachability oracle (paper Definition 2.5.1).
//
// A pi-route is d axis-aligned segments. For each dimension this oracle
// precomputes, along every grid line, prefix counts of faulty nodes and of
// faulty directed links, so each segment is tested with O(1) subtractions
// instead of an O(n) walk. Construction is O(d * N); queries are O(d).
// This is the workhorse behind building the reachability matrices R_t of
// Section 6.2, whose p*q entries dominate without it.
//
// Immutable once built, like FloodOracle: the prefix counts describe the
// bound FaultSet as it was at construction, so a fault set that grows
// needs a new oracle. (The incremental solver needs none: it applies new
// faults to the previous matrices as exact route masks.)
//
// Torus routes travel the shorter way around (ties positive); a wrapping
// segment decomposes into two straight pieces plus the wrap link.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

class ReachOracle {
 public:
  ReachOracle(const MeshShape& shape, const FaultSet& faults);

  const MeshShape& shape() const { return *shape_; }
  const FaultSet& faults() const { return *faults_; }

  // Whether w is (F, pi)-reachable from v.
  bool reach1(const Point& v, const Point& w, const DimOrder& order) const;

 private:
  // Faulty nodes on the line through `line0` (node id with coordinate j
  // zeroed) with coordinate j in [lo, hi].
  std::int64_t faulty_nodes(NodeId line0, int j, Coord lo, Coord hi) const;
  // Faulty +links with source coordinate in [lo, hi] (non-wrap links only).
  std::int64_t faulty_pos_links(NodeId line0, int j, Coord lo, Coord hi) const;
  // Faulty -links with source coordinate in [lo, hi] (non-wrap links only).
  std::int64_t faulty_neg_links(NodeId line0, int j, Coord lo, Coord hi) const;

  // Directed travel from coordinate a to b along dimension j on the given
  // line, including the closed node range and every traversed link.
  bool segment_clear(NodeId line0, int j, Coord a, Coord b) const;

  const MeshShape* shape_;
  const FaultSet* faults_;
  bool have_link_faults_;
  // node_pfx_[j][id] = # faulty nodes with coord j in [0 .. coord_j(id)]
  // on id's line.
  std::vector<std::vector<std::int32_t>> node_pfx_;
  // pos_link_pfx_[j][id] = # faulty +links with source coord in
  // [0 .. coord_j(id)-1]; neg_link_pfx_[j][id] = # faulty -links with
  // source coord in [1 .. coord_j(id)]. Wrap links are excluded and
  // checked directly.
  std::vector<std::vector<std::int32_t>> pos_link_pfx_;
  std::vector<std::vector<std::int32_t>> neg_link_pfx_;
};

}  // namespace lamb
