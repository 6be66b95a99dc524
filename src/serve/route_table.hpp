// Epoch-versioned, read-mostly route tables for the serving layer.
//
// A RouteTable is a view of one manager epoch: the epoch's
// manager::EpochConfig (sealed faults, orders, lambs, survivors,
// certification and the epoch's one flood memo, which the manager fills
// too) plus the tick it was published at. RouteService swaps tables by
// replacing one shared_ptr under its mutex (RCU-style: the critical
// section is a pointer copy), so readers never block on the solver —
// they route against whichever epoch they snapshotted, and the old table
// dies when its last in-flight reader drops the reference. The manager
// carries floods across an epoch swap once, when it builds the epoch
// record, by sharing them; a capture only reports that carry-forward.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "manager/machine_manager.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb::serve {

class RouteTable {
 public:
  // Flood carry-forward into the captured epoch's memo.
  struct BuildStats {
    std::int64_t floods_retained = 0;
    std::int64_t floods_dropped = 0;
  };

  // Captures the manager's CURRENT configuration (the manager must have
  // no pending reports — publish after reconfigure()), sharing its
  // manager.epoch_config(). *stats gets the carry-forward recorded on
  // that record (EpochConfig::carried), or zeroes when `prev` already
  // shares the record (a re-publish of one epoch); `prev` is used for
  // nothing else.
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
  // memo's own lock serializes flood memoization, never the solver.
  // Deterministic in (src, dst, rng state) — memo warmth cannot change
  // the result. nullopt is impossible for covered pairs of a certified
  // table (the lamb guarantee).
  std::optional<wormhole::Route> route(NodeId src, NodeId dst, Rng& rng) const;

  // One-round dimension-ordered route against this table's fault set —
  // the degradation ladder's last serving rung. nullopt when the e-cube
  // path crosses a fault.
  std::optional<wormhole::Route> dim_order_route(NodeId src,
                                                 NodeId dst) const;

  // Floods in the epoch's memo.
  std::int64_t cached_floods() const {
    return config_->routes.cached_entries();
  }

 private:
  RouteTable(std::shared_ptr<const manager::EpochConfig> config,
             std::int64_t published_tick)
      : config_(std::move(config)), published_tick_(published_tick) {}

  std::shared_ptr<const manager::EpochConfig> config_;
  std::int64_t published_tick_ = 0;
};

}  // namespace lamb::serve
