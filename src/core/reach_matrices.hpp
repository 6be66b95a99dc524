// Find-Reachability (paper Section 6.2, Figure 12): builds the per-round
// 1-round reachability matrices R_t between SES and DES representatives,
// the intersection matrices I_t, and their Boolean product
// R^(k) = R1 I1 R2 I2 ... I_{k-1} R_k, whose zeros are exactly the
// (SES, DES) pairs that cannot communicate in k rounds (Lemma 5.1
// generalized). The product is associative; reach_chain evaluates it
// right to left.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/partition.hpp"
#include "reach/reach_oracle.hpp"

namespace lamb {

// R_t(i, j) = 1 iff rep(ses[i]) can (F, order)-reach rep(des[j]).
BitMatrix one_round_reach_matrix(const ReachOracle& oracle,
                                 const EquivPartition& ses,
                                 const EquivPartition& des,
                                 const DimOrder& order);

// What a delta run splices into I_t from the previous run's same chain
// step: that step's matrix, and the partition repairs' identity maps (the
// old index of every cell kept verbatim, else -1) of the DES partition
// behind its rows and the SES partition behind its columns.
struct IntersectionSplice {
  const BitMatrix& prev;
  const std::vector<std::int64_t>& des_old_of_new;
  const std::vector<std::int64_t>& ses_old_of_new;
};

// I_t(j, i) = 1 iff des_prev[j] and ses_next[i] share a node. With
// `splice`, a row whose DES cell was kept copies its kept columns from the
// previous I_t (a kept cell is the old RectSet, so those entries are the
// old ones) and tests only the new columns; every other row tests all
// columns. The one I_t builder of the full and incremental runs.
BitMatrix intersection_matrix(const EquivPartition& des_prev,
                              const EquivPartition& ses_next,
                              const IntersectionSplice* splice = nullptr);

// R^(k) = R_{u_1} I_1 R_{u_2} ... I_{k-1} R_{u_k} with u_t = round_part[t-1]:
// `r` holds one R per distinct ordering, `inters` one I_t per chain step
// (size k-1). Evaluated right to left — T = R_k, then T = I_t T and
// T = R_t T for t = k-1 down to 1 — so every product has either a sparse
// left factor (I_t) or output rows that fill after a few ORs (R_t times a
// near-full I_t T), which the saturating BitMatrix kernel stops early.
// The one chain rule of the full, incremental and generic solvers.
BitMatrix reach_chain(const std::vector<BitMatrix>& r,
                      const std::vector<BitMatrix>& inters,
                      const std::vector<int>& round_part);

// One side of the Section 6.3 cover: the classes behind the rows of R^(k)
// (round-1 sources) or behind its columns (round-k destinations).
struct CoverSide {
  std::function<double(std::int64_t)> weight;  // cost of sacrificing class i
  std::function<void(std::int64_t, std::vector<NodeId>*)> append;  // members
};

struct ReachCover {
  std::vector<NodeId> lambs;  // members of the chosen classes, unsorted
  double weight = 0.0;
  std::int64_t relevant_rows = 0;  // rows of R^(k) with a zero
  std::int64_t relevant_cols = 0;  // columns of R^(k) with a zero
};

// Section 6.3 on R^(k): the relevant rows and columns become weighted
// vertices, each zero entry (i, j) an edge (row-major order), and the
// minimum-weight vertex cover picks the classes whose members become
// lambs (rows first, then columns). `before_cover` runs between that setup
// and the min-cut. The one cover step of the full, incremental and
// generic solvers.
ReachCover min_weight_reach_cover(
    const BitMatrix& rk, const CoverSide& rows, const CoverSide& cols,
    const std::function<void()>& before_cover = {});

// One Find-Reachability run over one fault set: what the lamb solvers
// need (the round-1 SES and round-k DES partitions and R^(k)) and every
// factor the chain was built from, which a later solve over a superset
// fault set reuses (the incremental reconfiguration path). The chain's
// intermediate products are not kept; the incremental path recomputes
// them in full.
struct ReachComputation {
  std::vector<DimOrder> distinct;  // distinct orderings, in order of first use
  std::vector<int> round_part;     // size k: round t uses index round_part[t]
  // Per distinct ordering: the partitions, their splice metadata and R_u.
  std::vector<EquivPartition> ses;
  std::vector<EquivPartition> des;
  std::vector<PartitionSpans> ses_spans;
  std::vector<PartitionSpans> des_spans;
  std::vector<BitMatrix> r;
  std::vector<BitMatrix> inters;  // I_t per chain step t = 1..k-1
  BitMatrix rk;                   // p_1 x q_k k-round reachability
  double seconds_partition = 0.0;
  double seconds_matrices = 0.0;

  const EquivPartition& first_ses() const {
    return ses[static_cast<std::size_t>(round_part.front())];
  }
  const EquivPartition& last_des() const {
    return des[static_cast<std::size_t>(round_part.back())];
  }
};

// Per-layer reuse counters of one incremental Find-Reachability run.
struct ReachDelta {
  std::int64_t partition_cells_reused = 0;
  std::int64_t partition_cells_recomputed = 0;
  // "Blocks" are the reuse units of the matrix layer: R_t entries copied
  // from the previous run versus entries recomputed (columns whose cell
  // keeps no old representative, entries a delta fault flipped). The
  // chain products are recomputed in full and not counted.
  std::int64_t blocks_reused = 0;
  std::int64_t blocks_recomputed = 0;
};

// Runs Find-SES/DES-Partition for each distinct ordering in `orders` and
// computes R^(k) as the Section 6.2 chain. Identical orderings share one
// partition and one R_t, the simplification the paper notes at the end
// of Section 6.2.
ReachComputation compute_reachability(const MeshShape& shape,
                                      const FaultSet& faults,
                                      const MultiRoundOrder& orders);

// Incremental Find-Reachability: recomputes `prev` after `delta_nodes` /
// `delta_links` were added, producing exactly what
// compute_reachability(shape, faults, orders) would. `faults` is the new
// cumulative set. Partitions are repaired locally. Every new cell has a
// parent, the old cell holding its representative (a spliced cell is its
// own parent); by Lemma 4.1 and the old partition's uniformity its R_t row
// or column under the old faults is the parent's, so R_t is copied
// through the parent maps and the delta applied with exact bit masks: an
// entry turns 0 iff its dimension-ordered route holds a new faulty node,
// or both endpoints of a new bidirectional link, or both endpoints of a
// new directed link with the route's source on the link's `from` side. No
// reachability oracle is queried. Intersection matrices come from the
// full run's step loop, each splicing the entries of cells the repair
// kept verbatim (intersection_matrix), and the chain is recomputed in
// full by reach_chain. Returns false — caller must fall back to the full
// computation — when the partition repair bails, the orderings do not
// match `prev`, the mesh wraps, or a new cell has no parent (an invariant
// break, never expected).
bool compute_reachability_incremental(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<Point>& delta_nodes,
    const std::vector<LinkFault>& delta_links, const ReachComputation& prev,
    ReachComputation* out, ReachDelta* delta);

}  // namespace lamb
