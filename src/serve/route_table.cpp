#include "serve/route_table.hpp"

#include <utility>

#include "reach/dim_order.hpp"
#include "reach/route.hpp"

namespace lamb::serve {

std::shared_ptr<const RouteTable> RouteTable::capture(
    const manager::MachineManager& manager, std::int64_t published_tick,
    const RouteTable* prev, BuildStats* stats) {
  std::shared_ptr<const RouteTable> table(
      new RouteTable(manager.epoch_config(), published_tick));
  if (stats != nullptr) {
    const auto& carried = table->config_->carried;
    *stats = prev != nullptr && prev->config_ == table->config_
                 ? BuildStats{}
                 : BuildStats{carried.retained, carried.dropped};
  }
  return table;
}

std::optional<wormhole::Route> RouteTable::route(NodeId src, NodeId dst,
                                                 Rng& rng) const {
  if (!covers(src, dst)) return std::nullopt;
  return config_->routes.build(src, dst, rng);
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

}  // namespace lamb::serve
