// Epoch-versioned, read-mostly route tables for the serving layer.
//
// A RouteTable is an immutable view of one manager epoch: the epoch's
// manager::EpochConfig (sealed faults, orders, lambs, survivors and
// certification; shared with the manager, not copied or recomputed) plus
// a memoizing flood cache of its own, so a repeated vend against the epoch
// costs one scan of the intersection of two cached floods. RouteService
// swaps tables with a single atomic shared_ptr store (RCU-style), so readers
// never block on the solver — they route against whichever epoch they
// snapshotted, and the old table dies when its last in-flight reader
// drops the reference.
//
// capture() carries the previous table's surviving floods forward via
// RouteCache::adopt, so an epoch swap only re-floods endpoints the new
// faults could have touched.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "manager/machine_manager.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb::serve {

class RouteTable {
 public:
  // Flood carry-forward outcome of a capture (zeroes for a cold table).
  struct BuildStats {
    std::int64_t floods_retained = 0;
    std::int64_t floods_dropped = 0;
  };

  // Captures the manager's CURRENT configuration (the manager must have
  // no pending reports — publish after reconfigure()), sharing its
  // manager.epoch_config(). When `prev` is the table of an earlier
  // epoch of the same timeline with identical shape and orders, its
  // surviving floods are adopted; any mismatch (order escalation, shape
  // change, a fault `prev` knew that this epoch does not) silently falls
  // back to a cold cache.
  static std::shared_ptr<const RouteTable> capture(
      const manager::MachineManager& manager, std::int64_t published_tick,
      const RouteTable* prev = nullptr, BuildStats* stats = nullptr);

  RouteTable(const RouteTable&) = delete;
  RouteTable& operator=(const RouteTable&) = delete;

  int epoch() const { return config_->epoch; }
  // Certified at rounds(), escalated rounds included; an uncertified
  // table may legitimately miss pairs.
  bool certified() const { return config_->certified; }
  std::int64_t published_tick() const { return published_tick_; }
  int rounds() const { return static_cast<int>(config_->orders.size()); }
  const MeshShape& shape() const { return *config_->snapshot->shape; }
  const FaultSet& faults() const { return config_->snapshot->faults; }

  const std::vector<NodeId>& survivors() const { return config_->survivors; }
  bool covers(NodeId id) const { return config_->is_survivor(id); }
  bool covers(NodeId src, NodeId dst) const {
    return covers(src) && covers(dst) && src != dst;
  }

  // k-round route between survivors of THIS epoch. Thread-safe; the
  // table-local mutex only serializes flood memoization, never the
  // solver. Deterministic in (src, dst, rng state) — cache warmth cannot
  // change the result. nullopt is impossible for covered pairs of a
  // certified table (the lamb guarantee).
  std::optional<wormhole::Route> route(NodeId src, NodeId dst, Rng& rng) const;

  // One-round dimension-ordered route against this table's fault set —
  // the degradation ladder's last serving rung. nullopt when the e-cube
  // path crosses a fault.
  std::optional<wormhole::Route> dim_order_route(NodeId src,
                                                 NodeId dst) const;

  std::int64_t cached_floods() const;

 private:
  RouteTable(std::shared_ptr<const manager::EpochConfig> config,
             std::int64_t published_tick);

  std::shared_ptr<const manager::EpochConfig> config_;
  std::int64_t published_tick_ = 0;
  mutable std::mutex mu_;  // guards cache_ memoization only
  mutable wormhole::RouteCache cache_;
};

}  // namespace lamb::serve
