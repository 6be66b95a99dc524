// Footnote 7's "spanning tree" R^(k), the reference the Section 6.2 chain
// (compute_reachability) is checked against: one k-round flood
// (FloodOracle::reach_from) per round-1 SES representative, read at the
// round-k DES representatives. It takes the partitions from `reach`, so
// the two matrices index the same classes.
#pragma once

#include "core/bit_matrix.hpp"
#include "core/reach_matrices.hpp"
#include "reach/flood_oracle.hpp"

namespace lamb {

inline BitMatrix flood_reference(const MeshShape& shape, const FaultSet& faults,
                                 const MultiRoundOrder& orders,
                                 const ReachComputation& reach) {
  const FloodOracle flood(shape, faults);
  const EquivPartition& ses = reach.first_ses();
  const EquivPartition& des = reach.last_des();
  BitMatrix rk(ses.size(), des.size());
  for (std::int64_t i = 0; i < ses.size(); ++i) {
    const Bits from = flood.reach_from(ses.rep(i), orders);
    for (std::int64_t j = 0; j < des.size(); ++j) {
      if (from.test(shape.index(des.rep(j)))) rk.set(i, j);
    }
  }
  return rk;
}

}  // namespace lamb
