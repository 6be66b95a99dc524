// The route picker: k-round dimension-ordered routes for the wormhole
// simulator and the serving layer, with per-endpoint flood caching.
//
// A (pi_1,...,pi_k)-ordered routing does not fix the k-1 intermediate
// nodes (paper Section 2.1); following the heuristic the paper names,
// RouteCache picks intermediates giving the shortest total route,
// breaking ties uniformly at random. Round r travels on virtual channel
// r, the deadlock-avoidance scheme the whole paper is built around (one
// virtual channel per round).
//
// Under traffic the same endpoints recur constantly (every survivor
// sources many messages, hot spots sink many), so RouteCache memoizes the
// forward flood of each source and the backward flood of each
// destination -- the state a node's system software would keep between
// reconfigurations. Every k takes its endpoint floods from that memo:
//   * k = 1 tests dst against the source's flood;
//   * k = 2 (the paper's configuration) runs one bound-pruned scan of the
//     intersection of the two cached floods for the intermediate;
//   * k >= 3 runs the exact shortest-intermediate DP, flooding the middle
//     rounds directly.
// Memory is one N-bit set per distinct endpoint seen, freed on
// reconfigure(). All floods of one fault-set state come from one
// FloodOracle, built on the first miss and rebuilt after reconfigure(),
// invalidate(), or growth of the referenced FaultSet.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "reach/flood_oracle.hpp"
#include "support/bitset.hpp"
#include "support/rng.hpp"

namespace lamb::wormhole {

struct Hop {
  int dim = 0;
  Dir dir = Dir::Pos;
  int vc = 0;  // round index
};

struct Route {
  NodeId src = 0;
  NodeId dst = 0;
  std::vector<Hop> hops;
  std::vector<NodeId> intermediates;  // u_1 .. u_{k-1}

  std::int64_t length() const { return static_cast<std::int64_t>(hops.size()); }
  // Number of direction changes (paper requirement (iv): minimize turns).
  int turns() const;
};

// Appends the hops of the `order`-route from `from` to `to`, on virtual
// channel `round`.
void append_round(const MeshShape& shape, const Point& from, const Point& to,
                  const DimOrder& order, int round, Route* out);

// Running per-node usage counters for congestion-aware intermediate
// selection (the paper notes the choice of intermediates "can affect
// message congestion" and names only the shortest-length heuristic; this
// is the natural load-balancing refinement). Only k = 2 builds read or
// charge it.
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

  // Fault-free k-round route from src to dst, or nullopt when dst is not
  // (k, F, orders)-reachable from src or either id lies outside [0, N).
  // When `load` is non-null and k == 2, ties among minimum-length
  // intermediates are broken toward the least-used intermediate node
  // (instead of uniformly at random), and the counters of every node on
  // the chosen route are incremented; other k ignore `load`.
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
  // The oracle for the referenced FaultSet's current state. That set may
  // grow in place between reconfigures (MachineManager::report_*_fault),
  // so a node or link count that moved since the last build also
  // triggers a rebuild.
  const FloodOracle& oracle();
  const Bits& forward_of(NodeId src);
  const Bits& backward_of(NodeId dst);
  // k >= 3: the intermediates u_1 .. u_{k-1} (empty when unreachable).
  std::vector<NodeId> pick_chain(NodeId src, NodeId dst, Rng& rng);

  const MeshShape* shape_;
  const FaultSet* faults_;
  MultiRoundOrder orders_;
  std::optional<FloodOracle> oracle_;
  std::int64_t oracle_node_faults_ = 0;  // counts oracle_ was built at
  std::int64_t oracle_link_faults_ = 0;
  std::unordered_map<NodeId, Bits> forward_;
  std::unordered_map<NodeId, Bits> backward_;
  std::vector<std::int64_t> scan_costs_;  // build()'s c_j tables, reused
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace lamb::wormhole
