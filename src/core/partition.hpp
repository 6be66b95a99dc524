// Find-SES-Partition / Find-DES-Partition (paper Section 6.1, Figure 11).
//
// Given a mesh, a fault set, and a 1-round ordering pi, produces a
// partition of the good nodes into rectangular sets that are source-
// (resp. destination-) equivalent: all members reach (resp. are reached
// from) exactly the same nodes in one pi-round. The partition has at most
// (2d-1)f + 1 sets (Theorem 6.4) and is computed in time polynomial in d
// and f, independent of the mesh size N.
//
// Generalization to an arbitrary ordering pi: the ascending-order
// algorithm peels the last-routed dimension first, so for SES we peel
// pi_d, pi_{d-1}, ..., pi_1; a DES partition for pi is an SES partition
// for reversed(pi) and therefore peels pi_1, ..., pi_d.
//
// Link-fault handling (the paper allows both fault kinds): a link fault
// along a not-yet-peeled dimension marks its hyperplanes as "H" planes
// exactly like a node fault; a link fault along the currently peeled
// dimension instead *cuts* the step-2(c) interval between its endpoints
// (the two sides stay source-equivalent only among themselves).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "mesh/rect_set.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

struct EquivPartition {
  std::vector<RectSet> sets;

  std::int64_t size() const { return static_cast<std::int64_t>(sets.size()); }
  // Representative of set i (Lemma 4.1); always a good node.
  Point rep(std::int64_t i) const {
    return sets[static_cast<std::size_t>(i)].representative();
  }
  // Index of the set containing node p, or -1 (p faulty). Linear scan.
  std::int64_t find(const Point& p) const;
};

// Structural metadata of one Find-Partition run, recorded at the
// outermost peel level: which hyperplane coordinates were blocked, the
// [begin, end) span of output sets each blocked hyperplane's subtree
// emitted, and where the level-0 maximal intervals start. This is what
// repair_partition needs to splice a previous partition instead of
// recomputing it.
struct PartitionSpans {
  std::vector<Coord> coords;  // blocked outer coords, ascending
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;  // per coord
  std::int64_t tail_begin = 0;  // level-0 intervals occupy [tail_begin, size)
};

// Source-equivalent-set partition for the 1-round ordering `order`.
// When `spans` is non-null it receives the splice metadata.
EquivPartition find_ses_partition(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const DimOrder& order,
                                  PartitionSpans* spans = nullptr);

// Destination-equivalent-set partition for the 1-round ordering `order`.
EquivPartition find_des_partition(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const DimOrder& order,
                                  PartitionSpans* spans = nullptr);

// Result of an incremental partition repair: the repaired partition
// (byte-identical to a from-scratch Find-Partition over `faults`), its
// splice metadata, and the old index of every new set: a spliced set's
// own, a recomputed set's equal old set at the same place (the previous
// span of its hyperplane, or the previous level-0 intervals), else -1.
// `cells_reused` counts sets spliced from the previous partition,
// `cells_recomputed` those rebuilt.
struct PartitionRepair {
  EquivPartition partition;
  PartitionSpans spans;
  std::vector<std::int64_t> old_of_new;
  std::int64_t cells_reused = 0;
  std::int64_t cells_recomputed = 0;
};

// Repairs a previous partition after `delta_nodes` / `delta_links` were
// added to the fault set (`faults` is the previous set plus them). It is
// the Find-Partition run over `faults`, except that at the outermost peel
// level a blocked hyperplane the delta does not touch copies its span
// from `prev` instead of being recursed into: its subtree would receive
// the same faults. Returns nullopt — caller must recompute from scratch —
// when the damage is too widespread (more than half the blocked
// hyperplanes dirty: the "merged regions" regime where repair would redo
// most of the work anyway) or the mesh is one-dimensional. `des` selects
// the DES peel order, as in find_des_partition.
std::optional<PartitionRepair> repair_partition(
    const MeshShape& shape, const FaultSet& faults,
    const std::vector<Point>& delta_nodes,
    const std::vector<LinkFault>& delta_links, const DimOrder& order,
    bool des, const EquivPartition& prev, const PartitionSpans& prev_spans);

// The Theorem 6.4 upper bound
//   B(d, f) = sum_{j=2}^{d} min(2f, n_d n_{d-1} ... n_{j+1} (n_j - 1)) + f + 1
// on the partition size, for the mesh's widths listed in routing order
// (ascending order uses the shape's own width order). The convention for
// j = d is n_d - 1.
std::int64_t theorem64_bound(const MeshShape& shape, std::int64_t f,
                             const DimOrder& order);

// The coarser bound (2d-1) f + 1.
std::int64_t coarse_partition_bound(int d, std::int64_t f);

}  // namespace lamb
