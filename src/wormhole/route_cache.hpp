// Route construction with per-endpoint flood caching.
//
// RouteBuilder recomputes the forward flood of the source and the
// backward flood of the destination on every call; under traffic, the
// same endpoints recur constantly (every survivor sources many messages,
// hot spots sink many). RouteCache memoizes both floods per node — the
// state a node's system software would keep between reconfigurations —
// turning route construction into one scan of the intersection of two
// cached floods for the intermediate. The scan prunes by per-dimension
// length bounds yet picks the same node with the same rng draws as
// RouteBuilder. Memory is one N-bit set per distinct endpoint seen, freed
// on reconfigure().
//
// The fast path covers k = 2 (the paper's configuration); other round
// counts delegate to the exact RouteBuilder DP.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "support/bitset.hpp"
#include "wormhole/route_builder.hpp"

namespace lamb::wormhole {

// Running per-node usage counters for congestion-aware intermediate
// selection (the paper notes the choice of intermediates "can affect
// message congestion" and names only the shortest-length heuristic; this
// is the natural load-balancing refinement).
struct NodeLoad {
  explicit NodeLoad(const MeshShape& shape)
      : counts(static_cast<std::size_t>(shape.size()), 0) {}
  std::vector<std::int32_t> counts;

  // Summary stats for epoch reports and the telemetry dump (a route
  // charges every node it visits, so these measure lamb-induced load
  // concentration, paper Section 7).
  std::int64_t total() const;
  std::int32_t max() const;
  double mean_nonzero() const;  // mean over nodes that carried any route
  NodeId hottest() const;       // node with the highest count (-1: none)
  void reset();
};

class RouteCache {
 public:
  RouteCache(const MeshShape& shape, const FaultSet& faults,
             MultiRoundOrder orders);

  // Same contract as RouteBuilder::build. When `load` is non-null, ties
  // among minimum-length intermediates are broken toward the least-used
  // intermediate node (instead of uniformly at random), and the counters
  // of every node on the chosen route are incremented.
  std::optional<Route> build(NodeId src, NodeId dst, Rng& rng,
                             NodeLoad* load = nullptr);

  // Drops all cached floods (call after the fault set / lamb set
  // changes — the referenced FaultSet must reflect the new state).
  void reconfigure();

  // Outcome of a selective invalidation: how many cached floods survived
  // and how many had to be dropped.
  struct InvalidateStats {
    std::int64_t retained = 0;
    std::int64_t dropped = 0;
  };

  // Selective invalidation for the incremental reconfigure path: drops
  // only the cached floods that could have traversed a newly dead node or
  // link, keeping the rest. A flood is dropped when it contains a delta
  // node, or both endpoints of a delta link — any route through the dead
  // element would put it (or both its endpoints) in the flood, so a flood
  // failing the test is provably unchanged. The referenced FaultSet must
  // already reflect the new cumulative state; `delta_links` uses the
  // logical LinkFault records (both endpoints are checked regardless of
  // direction). Orders and shape must be unchanged since the floods were
  // built — callers that changed them must use reconfigure() instead.
  InvalidateStats invalidate(const std::vector<NodeId>& delta_nodes,
                             const std::vector<LinkFault>& delta_links);

  // Carry-forward for epoch-versioned tables (serve::RouteTable): seeds
  // this cache with every flood of `prev` that survives the fault delta,
  // leaving `prev` untouched. Equivalent to copying `prev` and calling
  // invalidate(delta_nodes, delta_links) on the copy, with the same
  // preconditions: this cache's FaultSet must already reflect the new
  // cumulative state, and shape/orders must match `prev`'s. Floods this
  // cache already holds for an adopted endpoint are kept (not
  // overwritten); they were built against the newer fault set.
  InvalidateStats adopt(const RouteCache& prev,
                        const std::vector<NodeId>& delta_nodes,
                        const std::vector<LinkFault>& delta_links);

  std::int64_t cached_entries() const {
    return static_cast<std::int64_t>(forward_.size() + backward_.size());
  }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  const Bits& forward_of(NodeId src);
  const Bits& backward_of(NodeId dst);

  const MeshShape* shape_;
  const FaultSet* faults_;
  MultiRoundOrder orders_;
  RouteBuilder fallback_;
  std::unordered_map<NodeId, Bits> forward_;
  std::unordered_map<NodeId, Bits> backward_;
  std::vector<std::int64_t> scan_costs_;  // build()'s c_j tables, reused
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace lamb::wormhole
