#include "serve/route_table.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "reach/dim_order.hpp"
#include "reach/route.hpp"

namespace lamb::serve {

RouteTable::RouteTable(std::shared_ptr<const manager::EpochConfig> config,
                       std::int64_t published_tick)
    : config_(std::move(config)),
      published_tick_(published_tick),
      cache_(config_->snapshot, config_->orders) {}

std::shared_ptr<const RouteTable> RouteTable::capture(
    const manager::MachineManager& manager, std::int64_t published_tick,
    const RouteTable* prev, BuildStats* stats) {
  std::shared_ptr<RouteTable> table(
      new RouteTable(manager.epoch_config(), published_tick));
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
