#include "serve/route_table.hpp"

#include "obs/obs.hpp"
#include "reach/dim_order.hpp"
#include "reach/route.hpp"

namespace lamb::serve {

RouteTable::RouteTable(const manager::MachineManager& manager,
                       std::int64_t published_tick)
    : orders_(manager.orders()),
      epoch_(manager.epoch()),
      certified_(!manager.history().empty() &&
                 manager.history().back().solve_status ==
                     SolveStatus::kCertified),
      published_tick_(published_tick),
      survivors_(manager.survivors()),
      is_survivor_(static_cast<std::size_t>(manager.shape().size()), 0),
      cache_(manager.snapshot(), orders_) {
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
  if (prev != nullptr) {
    std::lock_guard<std::mutex> lock(prev->mu_);
    if (const auto adopted = table->cache_.adopt(prev->cache_)) {
      build.floods_retained = adopted->retained;
      build.floods_dropped = adopted->dropped;
    }
  }
  static obs::Counter& retained = obs::counter("serve.table.floods_retained");
  static obs::Counter& dropped = obs::counter("serve.table.floods_dropped");
  retained.add(build.floods_retained);
  dropped.add(build.floods_dropped);
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
  const MeshShape& shape = this->shape();
  if (src == dst || src < 0 || dst < 0 || src >= shape.size() ||
      dst >= shape.size()) {
    return std::nullopt;
  }
  // One path to check: walking it costs O(d * n), a flood from src
  // O(N * n).
  const DimOrder ascending = DimOrder::ascending(shape.dim());
  const Point a = shape.point(src);
  const Point b = shape.point(dst);
  if (!route_clear(shape, faults(), a, b, ascending)) return std::nullopt;
  wormhole::Route route;
  route.src = src;
  route.dst = dst;
  wormhole::append_round(shape, a, b, ascending, 0, &route);
  return route;
}

std::int64_t RouteTable::cached_floods() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.cached_entries();
}

}  // namespace lamb::serve
