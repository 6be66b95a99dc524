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
// Memory is one N-bit set per distinct (endpoint, side) seen. A cache is
// bound to one sealed FaultSnapshot and one set of orders for its whole
// life, so its floods never go stale; it builds them from one
// FloodOracle, built on the first miss. A flood is an immutable value
// that depends only on the faults, the order and the endpoint, so a new
// epoch's cache adopt()s every flood of the previous epoch's cache that
// the new faults cannot have changed by sharing it, not copying it: the
// flood lives as long as the last epoch that holds it. The manager's
// epoch record (manager::EpochConfig) holds one cache per epoch, shared
// by the manager and every serving table of the epoch, so every public
// member is thread-safe: one mutex serializes the memoization.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
  RouteCache(std::shared_ptr<const FaultSnapshot> snapshot,
             MultiRoundOrder orders);
  // Seals its own snapshot of `faults`: later changes to `faults` do not
  // reach this cache.
  RouteCache(const MeshShape& shape, const FaultSet& faults,
             MultiRoundOrder orders);

  const std::shared_ptr<const FaultSnapshot>& snapshot() const {
    return snapshot_;
  }

  // Fault-free k-round route from src to dst, or nullopt when dst is not
  // (k, F, orders)-reachable from src or either id lies outside [0, N).
  // When `load` is non-null and k == 2, ties among minimum-length
  // intermediates are broken toward the least-used intermediate node
  // (instead of uniformly at random), and the counters of every node on
  // the chosen route are incremented; other k ignore `load`.
  std::optional<Route> build(NodeId src, NodeId dst, Rng& rng,
                             NodeLoad* load = nullptr);

  // Outcome of a carry-forward: how many of the previous cache's floods
  // were adopted and how many the new faults made stale.
  struct AdoptStats {
    std::int64_t retained = 0;
    std::int64_t dropped = 0;
  };

  // Carry-forward across an epoch swap: seeds this cache with every flood
  // of `prev` that the fault delta between the two snapshots cannot have
  // changed, sharing each with `prev` and leaving `prev`'s memo
  // untouched. A flood is stale when it contains a delta node, or both
  // endpoints of a delta link: any route through the dead element puts it
  // (or both its endpoints) in the flood, so a flood failing the test is
  // provably unchanged. Adopts nothing and returns nullopt when the
  // shapes or orders differ or when this snapshot does not contain every
  // fault of prev's (a restore to a divergent timeline). Floods this cache
  // already holds for an adopted endpoint are kept; they were built
  // against the newer snapshot. `prev` is read under its own lock, so its
  // vends may run concurrently.
  std::optional<AdoptStats> adopt(const RouteCache& prev);

  std::int64_t cached_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(floods_.size());
  }
  std::int64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  std::int64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  // Which flood of an endpoint: the first round's set it reaches, or the
  // last round's set that reaches it.
  enum class Side : std::int64_t { kForward = 0, kBackward = 1 };

  // build()'s helpers; the caller holds mu_.
  const FloodOracle& oracle();
  // The memoized flood of (endpoint, side), built on a miss.
  const Bits& flood(NodeId endpoint, Side side);
  // k >= 3: the intermediates u_1 .. u_{k-1} (empty when unreachable).
  std::vector<NodeId> pick_chain(NodeId src, NodeId dst, Rng& rng);

  std::shared_ptr<const FaultSnapshot> snapshot_;
  MultiRoundOrder orders_;
  mutable std::mutex mu_;  // guards every member below
  std::optional<FloodOracle> oracle_;  // over *snapshot_, built lazily
  // Keyed 2 * endpoint + side. adopt() shares entries across epochs.
  std::unordered_map<std::int64_t, std::shared_ptr<const Bits>> floods_;
  std::vector<std::int64_t> scan_tables_;  // build()'s cost windows, reused
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace lamb::wormhole
