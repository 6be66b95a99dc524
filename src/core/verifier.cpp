#include "core/verifier.hpp"

#include <stdexcept>

#include "core/lamb.hpp"
#include "reach/flood_oracle.hpp"

namespace lamb {

std::vector<Bits> full_reach_rows(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const MultiRoundOrder& orders) {
  if (shape.size() > (std::int64_t{1} << 14)) {
    throw std::invalid_argument(
        "full_reach_rows: mesh too large for O(N^2) verification");
  }
  if (orders.empty()) {
    throw std::invalid_argument("full_reach_rows: need at least 1 round");
  }
  const NodeId n = shape.size();
  const FloodOracle flood(shape, faults);

  // One-round rows per distinct ordering.
  auto one_round_rows = [&](const DimOrder& order) {
    std::vector<Bits> rows(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      rows[static_cast<std::size_t>(v)] =
          faults.node_faulty(v) ? Bits(n) : flood.reach1_from(shape.point(v), order);
    }
    return rows;
  };

  // One-round rows are cached per distinct ordering (the common case is
  // the same ordering in every round).
  std::vector<DimOrder> seen;
  std::vector<std::vector<Bits>> cache;
  auto rows_for = [&](const DimOrder& order) -> const std::vector<Bits>& {
    for (std::size_t u = 0; u < seen.size(); ++u) {
      if (seen[u] == order) return cache[u];
    }
    seen.push_back(order);
    cache.push_back(one_round_rows(order));
    return cache.back();
  };

  std::vector<Bits> acc = rows_for(orders.front());
  for (std::size_t r = 1; r < orders.size(); ++r) {
    const std::vector<Bits>& base = rows_for(orders[r]);
    std::vector<Bits> composed(static_cast<std::size_t>(n), Bits(n));
    for (NodeId v = 0; v < n; ++v) {
      Bits& row = composed[static_cast<std::size_t>(v)];
      acc[static_cast<std::size_t>(v)].for_each(
          [&](NodeId u) { row |= base[static_cast<std::size_t>(u)]; });
    }
    acc = std::move(composed);
  }
  return acc;
}

bool is_lamb_set(const MeshShape& shape, const FaultSet& faults,
                 const MultiRoundOrder& orders,
                 const std::vector<NodeId>& lambs) {
  return unreachable_survivor_pairs(shape, faults, orders, lambs, 1).empty();
}

std::vector<std::pair<NodeId, NodeId>> unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_pairs) {
  const std::vector<Bits> rows = full_reach_rows(shape, faults, orders);
  const std::vector<NodeId> survivors = survivor_nodes(faults, lambs);
  std::vector<std::pair<NodeId, NodeId>> bad;
  for (const NodeId v : survivors) {
    const Bits& row = rows[static_cast<std::size_t>(v)];
    for (const NodeId w : survivors) {
      if (bad.size() == max_pairs) return bad;
      if (!row.test(w)) bad.emplace_back(v, w);
    }
  }
  return bad;
}

}  // namespace lamb
