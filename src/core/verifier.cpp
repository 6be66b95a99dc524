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

namespace {

// The one scan: a k-round flood per survivor, read against the survivor
// mask word by word, in ascending (v, w) order. Keeps the first
// `max_pairs` pairs; with `count` null it stops there, otherwise it floods
// from every survivor and adds each one's missing pairs to *count.
std::vector<std::pair<NodeId, NodeId>> scan_unreachable(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_pairs, std::int64_t* count) {
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
    if (count == nullptr && bad.size() == max_pairs) break;
    const Bits reached = flood.reach_from(shape.point(v), orders);
    const std::vector<std::uint64_t>& got = reached.words();
    for (std::size_t wi = 0; wi < alive.size(); ++wi) {
      std::uint64_t missing = alive[wi] & ~got[wi];
      if (count != nullptr) *count += std::popcount(missing);
      for (; missing != 0 && bad.size() < max_pairs; missing &= missing - 1) {
        bad.emplace_back(v, static_cast<NodeId>(wi) * 64 +
                                std::countr_zero(missing));
      }
    }
  }
  return bad;
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_pairs) {
  return scan_unreachable(shape, faults, orders, lambs, max_pairs, nullptr);
}

UnreachableCount count_unreachable_survivor_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs,
    std::size_t max_sample) {
  UnreachableCount out;
  out.sample =
      scan_unreachable(shape, faults, orders, lambs, max_sample, &out.pairs);
  return out;
}

}  // namespace lamb
