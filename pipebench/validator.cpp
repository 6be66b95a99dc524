#include "validator.hpp"

#include <algorithm>

namespace pipebench {

using lamb::Dir;
using lamb::NodeId;
using lamb::Point;

namespace {

std::size_t link_index(NodeId node, int dims, int dim, Dir dir) {
  return static_cast<std::size_t>((node * dims + dim) * 2 +
                                  (dir == Dir::Pos ? 1 : 0));
}

// The neighbour of `p` along (dim, dir) on a mesh, or false at the edge.
bool step(const lamb::MeshShape& shape, Point* p, int dim, Dir dir) {
  const lamb::Coord next = (*p)[dim] + (dir == Dir::Pos ? 1 : -1);
  if (next < 0 || next >= shape.width(dim)) return false;
  (*p)[dim] = next;
  return true;
}

}  // namespace

const RouteValidator::EpochView& RouteValidator::view_of(
    const std::shared_ptr<const lamb::serve::RouteTable>& table) {
  if (view_.table == table) return view_;
  const lamb::MeshShape& shape = table->shape();
  const int dims = shape.dim();
  const auto n = static_cast<std::size_t>(shape.size());
  view_.table = table;
  view_.node_bad.assign(n, 0);
  view_.survivor.assign(n, 0);
  view_.link_bad.assign(n * static_cast<std::size_t>(dims) * 2, 0);
  const lamb::FaultSet& faults = table->faults();
  for (const NodeId id : faults.node_faults()) {
    view_.node_bad[static_cast<std::size_t>(id)] = 1;
  }
  for (const lamb::LinkFault& lf : faults.link_faults()) {
    const NodeId from = shape.index(lf.from);
    view_.link_bad[link_index(from, dims, lf.dim, lf.dir)] = 1;
    Point other = lf.from;
    if (lf.bidirectional && step(shape, &other, lf.dim, lf.dir)) {
      view_.link_bad[link_index(shape.index(other), dims, lf.dim,
                                lamb::opposite(lf.dir))] = 1;
    }
  }
  for (const NodeId id : table->survivors()) {
    view_.survivor[static_cast<std::size_t>(id)] = 1;
  }
  return view_;
}

std::string RouteValidator::check(
    const std::shared_ptr<const lamb::serve::RouteTable>& table,
    const lamb::wormhole::Route& route) {
  const EpochView& view = view_of(table);
  const lamb::MeshShape& shape = table->shape();
  const int dims = shape.dim();
  const int k = table->rounds();
  const NodeId n = shape.size();
  if (k != static_cast<int>(orders_.size())) {
    return "table rounds differ from the configured orders";
  }
  if (route.src < 0 || route.src >= n || route.dst < 0 || route.dst >= n ||
      route.src == route.dst) {
    return "endpoints out of range or equal";
  }
  if (view.survivor[static_cast<std::size_t>(route.src)] == 0 ||
      view.survivor[static_cast<std::size_t>(route.dst)] == 0 ||
      view.node_bad[static_cast<std::size_t>(route.src)] != 0 ||
      view.node_bad[static_cast<std::size_t>(route.dst)] != 0) {
    return "endpoint is not a survivor of the epoch";
  }

  Point at = shape.point(route.src);
  NodeId at_id = route.src;
  int round = 0;
  int last_pos = -1;      // position of the last dimension in the round
  int last_dim = -1;      // for the turn count
  Dir last_dir = Dir::Pos;
  int turns = 0;
  // Direction fixed per dimension within the current round.
  std::vector<int> dir_in_round(static_cast<std::size_t>(dims), 0);
  for (const lamb::wormhole::Hop& hop : route.hops) {
    if (hop.dim < 0 || hop.dim >= dims) return "hop dimension out of range";
    if (hop.vc < round) return "hop goes back to an earlier round";
    if (hop.vc >= k) return "more than k rounds";
    if (hop.vc > round) {
      round = hop.vc;
      last_pos = -1;
      std::fill(dir_in_round.begin(), dir_in_round.end(), 0);
    }
    const int pos =
        orders_[static_cast<std::size_t>(round)].position_of(hop.dim);
    if (pos < last_pos) return "round is not dimension-ordered";
    int& fixed = dir_in_round[static_cast<std::size_t>(hop.dim)];
    const int sign = hop.dir == Dir::Pos ? 1 : -1;
    if (fixed != 0 && fixed != sign) return "direction reversal in a round";
    fixed = sign;
    last_pos = pos;
    if (last_dim >= 0 && (hop.dim != last_dim || hop.dir != last_dir)) {
      ++turns;
    }
    last_dim = hop.dim;
    last_dir = hop.dir;
    if (view.link_bad[link_index(at_id, dims, hop.dim, hop.dir)] != 0) {
      return "hop crosses a faulty link";
    }
    if (!step(shape, &at, hop.dim, hop.dir)) return "hop leaves the mesh";
    at_id = shape.index(at);
    if (view.node_bad[static_cast<std::size_t>(at_id)] != 0) {
      return "hop enters a faulty node";
    }
  }
  if (at_id != route.dst) return "route does not end at the destination";
  if (turns > k * (dims - 1) + (k - 1)) return "too many turns";
  return {};
}

}  // namespace pipebench
