#include "serve/route_table.hpp"

#include "obs/obs.hpp"
#include "reach/dim_order.hpp"
#include "reach/route.hpp"

namespace lamb::serve {

RouteTable::RouteTable(const manager::MachineManager& manager,
                       std::int64_t published_tick)
    : shape_(manager.shape()),
      // A table snapshot owns its fault set (the manager's keeps
      // mutating), bound to the table's own shape.
      faults_(manager.faults(), shape_),
      orders_(manager.orders()),
      epoch_(manager.epoch()),
      certified_(!manager.history().empty() &&
                 manager.history().back().solve_status ==
                     SolveStatus::kCertified),
      published_tick_(published_tick),
      survivors_(manager.survivors()),
      is_survivor_(static_cast<std::size_t>(shape_.size()), 0),
      cache_(shape_, faults_, orders_) {
  for (const NodeId id : survivors_) {
    is_survivor_[static_cast<std::size_t>(id)] = 1;
  }
}

std::shared_ptr<const RouteTable> RouteTable::capture(
    const manager::MachineManager& manager, std::int64_t published_tick,
    const RouteTable* prev, BuildStats* stats) {
  std::shared_ptr<RouteTable> table(
      new RouteTable(manager, published_tick));
  BuildStats build;
  if (prev != nullptr && prev->shape_.to_string() == table->shape_.to_string() &&
      prev->orders_ == table->orders_) {
    // The carry-forward predicate is only sound when this epoch's faults
    // are a superset of prev's (monotone growth along one timeline); a
    // restore to a divergent timeline fails the check and floods cold.
    const std::optional<FaultDelta> delta =
        fault_delta(prev->faults_, table->faults_);
    if (delta) {
      std::scoped_lock lock(table->mu_, prev->mu_);
      const wormhole::RouteCache::InvalidateStats adopted =
          table->cache_.adopt(prev->cache_, delta->nodes, delta->links);
      build.floods_retained = adopted.retained;
      build.floods_dropped = adopted.dropped;
    }
  }
  obs::counter("serve.table.floods_retained").add(build.floods_retained);
  obs::counter("serve.table.floods_dropped").add(build.floods_dropped);
  if (stats != nullptr) *stats = build;
  return table;
}

std::optional<wormhole::Route> RouteTable::route(NodeId src, NodeId dst,
                                                 Rng& rng) const {
  if (!covers(src, dst)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.build(src, dst, rng);
}

std::optional<wormhole::Route> RouteTable::dim_order_route(
    NodeId src, NodeId dst) const {
  if (src == dst || src < 0 || dst < 0 || src >= shape_.size() ||
      dst >= shape_.size()) {
    return std::nullopt;
  }
  // One path to check: walking it costs O(d * n), a flood from src
  // O(N * n).
  const DimOrder ascending = DimOrder::ascending(shape_.dim());
  const Point a = shape_.point(src);
  const Point b = shape_.point(dst);
  if (!route_clear(shape_, faults_, a, b, ascending)) return std::nullopt;
  wormhole::Route route;
  route.src = src;
  route.dst = dst;
  wormhole::append_round(shape_, a, b, ascending, 0, &route);
  return route;
}

std::int64_t RouteTable::cached_floods() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.cached_entries();
}

}  // namespace lamb::serve
