#include "core/verifier.hpp"

#include <bit>
#include <stdexcept>

#include "core/lamb.hpp"
#include "reach/flood_oracle.hpp"

namespace lamb {

bool is_lamb_set(const MeshShape& shape, const FaultSet& faults,
                 const MultiRoundOrder& orders,
                 const std::vector<NodeId>& lambs) {
  return unreachable_survivor_pairs(shape, faults, orders, lambs, 1).empty();
}

std::vector<std::pair<NodeId, NodeId>> unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_pairs) {
  if (orders.empty()) {
    throw std::invalid_argument(
        "unreachable_survivor_pairs: need at least 1 round");
  }
  const std::vector<NodeId> survivors = survivor_nodes(faults, lambs);
  Bits survivor_mask(shape.size());
  for (const NodeId v : survivors) survivor_mask.set(v);
  const std::vector<std::uint64_t>& alive = survivor_mask.words();

  const FloodOracle flood(shape, faults);
  std::vector<std::pair<NodeId, NodeId>> bad;
  for (const NodeId v : survivors) {
    if (bad.size() == max_pairs) break;
    const Bits reached = flood.reach_from(shape.point(v), orders);
    const std::vector<std::uint64_t>& got = reached.words();
    for (std::size_t wi = 0; wi < alive.size(); ++wi) {
      for (std::uint64_t missing = alive[wi] & ~got[wi]; missing != 0;
           missing &= missing - 1) {
        if (bad.size() == max_pairs) return bad;
        bad.emplace_back(v, static_cast<NodeId>(wi) * 64 +
                                std::countr_zero(missing));
      }
    }
  }
  return bad;
}

}  // namespace lamb
