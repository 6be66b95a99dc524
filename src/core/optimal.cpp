#include "core/optimal.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "core/verifier.hpp"
#include "graph/general_wvc.hpp"
#include "graph/graph.hpp"

namespace lamb {
namespace {

// The bad-pair graph: one vertex per good node that appears in some
// unreachable pair, an (undirected) edge per unreachable ordered pair.
// `vertex_nodes` maps graph vertex -> mesh node id.
struct BadPairs {
  WeightedGraph graph;
  std::vector<NodeId> vertex_nodes;
};

BadPairs bad_pairs(const MeshShape& shape, const FaultSet& faults,
                   const MultiRoundOrder& orders) {
  // With no lambs every good node survives, and a good node always
  // reaches itself, so these are exactly the pairs (v, w != v).
  const auto pairs = unreachable_survivor_pairs(
      shape, faults, orders, {}, std::numeric_limits<std::size_t>::max());

  std::unordered_map<NodeId, int> vertex_of;
  BadPairs out;
  auto intern = [&](NodeId id) {
    auto [it, inserted] =
        vertex_of.try_emplace(id, static_cast<int>(out.vertex_nodes.size()));
    if (inserted) out.vertex_nodes.push_back(id);
    return it->second;
  };
  std::vector<std::pair<int, int>> edges;
  edges.reserve(pairs.size());
  for (const auto& [v, w] : pairs) edges.emplace_back(intern(v), intern(w));

  out.graph = WeightedGraph(static_cast<int>(out.vertex_nodes.size()));
  for (auto [a, b] : edges) out.graph.add_edge(a, b);
  return out;
}

}  // namespace

std::optional<std::vector<NodeId>> optimal_lamb_set(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, std::int64_t node_budget) {
  const BadPairs bp = bad_pairs(shape, faults, orders);
  const auto cover = wvc_exact(bp.graph, node_budget);
  if (!cover) return std::nullopt;
  std::vector<NodeId> lambs;
  lambs.reserve(cover->size());
  for (int v : *cover) {
    lambs.push_back(bp.vertex_nodes[static_cast<std::size_t>(v)]);
  }
  std::sort(lambs.begin(), lambs.end());
  return lambs;
}

}  // namespace lamb
