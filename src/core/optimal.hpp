// Exact minimum lamb sets for small meshes, used to test the Lamb1
// 2-approximation guarantee (Theorem 6.7) and the optimality of Lamb2
// with exact WVC (Corollary 6.10).
//
// A set L is a lamb set iff it covers every "bad pair" (v, w) of good
// nodes where w is not k-round reachable from v (Lemma 5.2 specialized to
// singleton sets; cf. Theorem 9.3's remark that singleton SES/DES
// partitions make the general-graph reduction exact with unit weights).
// So the minimum lamb set is a minimum vertex cover of the bad-pair
// graph, which we solve by branch and bound.
#pragma once

#include <optional>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

// Minimum-size lamb set, or nullopt when the branch-and-bound budget is
// exhausted. Exponential worst case; intended for small meshes.
std::optional<std::vector<NodeId>> optimal_lamb_set(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, std::int64_t node_budget = 1 << 22);

}  // namespace lamb
