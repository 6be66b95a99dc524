// Independent verification of lamb sets by explicit k-round reachability:
// footnote 7's "spanning tree" check (paper Section 4), one k-round flood
// (FloodOracle::reach_from) per survivor, read against the survivor mask.
// It shares no code with the Section 6.2 chain the solver runs. Memory is
// O(N) bits beyond the oracle, with no mesh-size limit; a valid verdict
// or a full count costs one flood per survivor, and a pair list stops at
// its cap. Used by the solver's uncovered fallback, `lambmesh_cli verify`,
// the exact optimal solver and the tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

// Whether `lambs` (sorted or not) is a (k, F, orders)-lamb set: every good
// node outside it reaches every other good node outside it.
bool is_lamb_set(const MeshShape& shape, const FaultSet& faults,
                 const MultiRoundOrder& orders,
                 const std::vector<NodeId>& lambs);

// Ordered survivor pairs (v, w) with w not reachable from v, ascending by
// v then w, up to `max_pairs` (the scan stops there); empty means the lamb
// set is valid. Throws std::invalid_argument when `orders` is empty.
std::vector<std::pair<NodeId, NodeId>> unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_pairs = 16);

// Every unreachable ordered survivor pair, counted without storing them
// (a bad lamb set at paper scale can have ~1e9), plus the first
// `max_sample` of them in the order unreachable_survivor_pairs lists them.
struct UnreachableCount {
  std::int64_t pairs = 0;
  std::vector<std::pair<NodeId, NodeId>> sample;
};

// Floods from every survivor: unlike unreachable_survivor_pairs it never
// stops early. Throws std::invalid_argument when `orders` is empty.
UnreachableCount count_unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_sample = 4);

}  // namespace lamb
