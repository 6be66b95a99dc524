#include "wormhole/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/lamb.hpp"

namespace lamb::wormhole {

std::string TrafficResult::summary() const {
  std::ostringstream os;
  os << messages.size() << " messages";
  if (unroutable > 0) os << " (" << unroutable << " unroutable)";
  if (route_hops.count() > 0) {
    os << ", hops p50 " << route_hops.quantile(0.50) << " p95 "
       << route_hops.quantile(0.95) << " p99 " << route_hops.quantile(0.99)
       << " max " << route_hops.max();
  }
  return os.str();
}

namespace {

NodeId bit_reverse_in_range(NodeId id, NodeId size) {
  int bits = 0;
  while ((NodeId{1} << bits) < size) ++bits;
  NodeId rev = 0;
  for (int b = 0; b < bits; ++b) {
    if ((id >> b) & 1) rev |= NodeId{1} << (bits - 1 - b);
  }
  return rev % size;
}

}  // namespace

TrafficResult generate_traffic(const MeshShape& shape, const FaultSet& faults,
                               const std::vector<NodeId>& lambs,
                               RouteCache& routes, const TrafficConfig& config,
                               Rng& rng, NodeLoad* load) {
  const std::vector<NodeId> survivors = survivor_nodes(faults, lambs);

  TrafficResult out;
  if (survivors.size() < 2) return out;

  // Injector subset: evenly spaced over the survivor list so a sparse
  // fraction still spreads sources across the whole mesh. Chosen without
  // consuming rng state, so fraction == 1.0 reproduces the historical
  // message stream exactly.
  std::vector<NodeId> injectors;
  if (config.injector_fraction < 1.0) {
    const std::size_t want = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config.injector_fraction *
                         static_cast<double>(survivors.size()))));
    for (std::size_t j = 0; j < want; ++j) {
      injectors.push_back(survivors[j * survivors.size() / want]);
    }
  } else {
    injectors = survivors;
  }

  auto pick_injector = [&] {
    return injectors[rng.below(injectors.size())];
  };
  auto pick_survivor = [&] {
    return survivors[rng.below(survivors.size())];
  };
  // Nearest survivor at or after a raw node id (wrapping), used to project
  // permutation patterns onto the survivor set.
  auto project = [&](NodeId raw) {
    auto it = std::lower_bound(survivors.begin(), survivors.end(), raw);
    if (it == survivors.end()) it = survivors.begin();
    return *it;
  };
  const NodeId hotspot = survivors[survivors.size() / 2];

  std::int64_t next_id = 0;
  for (std::int64_t i = 0; i < config.num_messages; ++i) {
    const NodeId src = pick_injector();
    NodeId dst = src;
    switch (config.pattern) {
      case Pattern::kUniform:
        while (dst == src && survivors.size() > 1) dst = pick_survivor();
        break;
      case Pattern::kTranspose: {
        Point p = shape.point(src);
        std::swap(p[0], p[1]);
        for (int j = 0; j < 2; ++j) {
          p[j] = static_cast<Coord>(p[j] % shape.width(j));
        }
        dst = project(shape.index(p));
        break;
      }
      case Pattern::kBitReversal:
        dst = project(bit_reverse_in_range(src, shape.size()));
        break;
      case Pattern::kHotSpot:
        dst = hotspot;
        break;
    }
    if (dst == src) continue;

    auto route = routes.build(src, dst, rng, load);
    if (!route) {
      ++out.unroutable;
      continue;
    }
    Message msg;
    msg.id = next_id++;
    msg.route = std::move(*route);
    msg.length_flits = config.message_flits;
    msg.inject_cycle = static_cast<std::int64_t>(
        std::floor(static_cast<double>(i) * config.injection_gap));
    out.route_hops.add(static_cast<double>(msg.route.length()));
    out.messages.push_back(std::move(msg));
  }
  return out;
}

}  // namespace lamb::wormhole
