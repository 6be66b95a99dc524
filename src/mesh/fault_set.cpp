#include "mesh/fault_set.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace lamb {

FaultSet::FaultSet(const MeshShape& shape) : shape_(&shape) {
  node_bad_.assign(static_cast<std::size_t>(shape.size()), 0);
}

FaultSet::FaultSet(const FaultSet& other, const MeshShape& shape)
    : FaultSet(other) {
  if (!(shape == other.shape())) {
    throw std::invalid_argument("FaultSet: copy bound to a different shape");
  }
  shape_ = &shape;
}

void FaultSet::add_node(const Point& p) {
  assert(shape_->in_bounds(p));
  const NodeId id = shape_->index(p);
  if (node_bad_[static_cast<std::size_t>(id)]) return;
  node_bad_[static_cast<std::size_t>(id)] = 1;
  node_faults_.insert(
      std::lower_bound(node_faults_.begin(), node_faults_.end(), id), id);
}

namespace {

// Canonical endpoint/direction for a link so duplicates are detected
// regardless of which end was named.
bool canonicalize(const MeshShape& shape, Point* from, int dim, Dir* dir) {
  Point to;
  if (!shape.neighbor(*from, dim, *dir, &to)) return false;
  if (*dir == Dir::Neg) {
    *from = to;
    *dir = Dir::Pos;
  }
  return true;
}

}  // namespace

void FaultSet::add_link(const Point& from, int dim, Dir dir) {
  Point a = from;
  Dir d = dir;
  if (!canonicalize(*shape_, &a, dim, &d)) {
    throw std::invalid_argument("FaultSet::add_link: link does not exist");
  }
  Point b;
  shape_->neighbor(a, dim, Dir::Pos, &b);
  const LinkId fwd = shape_->link_id(a, dim, Dir::Pos);
  const LinkId bwd = shape_->link_id(b, dim, Dir::Neg);
  const bool already =
      std::binary_search(bad_directed_links_.begin(), bad_directed_links_.end(), fwd) &&
      std::binary_search(bad_directed_links_.begin(), bad_directed_links_.end(), bwd);
  if (already) return;
  for (LinkId id : {fwd, bwd}) {
    auto it = std::lower_bound(bad_directed_links_.begin(),
                               bad_directed_links_.end(), id);
    if (it == bad_directed_links_.end() || *it != id) {
      bad_directed_links_.insert(it, id);
    }
  }
  link_faults_.push_back(LinkFault{a, dim, Dir::Pos, /*bidirectional=*/true});
}

void FaultSet::add_directed_link(const Point& from, int dim, Dir dir) {
  Point to;
  if (!shape_->neighbor(from, dim, dir, &to)) {
    throw std::invalid_argument("FaultSet::add_directed_link: link does not exist");
  }
  const LinkId id = shape_->link_id(from, dim, dir);
  auto it = std::lower_bound(bad_directed_links_.begin(),
                             bad_directed_links_.end(), id);
  if (it != bad_directed_links_.end() && *it == id) return;
  bad_directed_links_.insert(it, id);
  link_faults_.push_back(LinkFault{from, dim, dir, /*bidirectional=*/false});
}

void FaultSet::add(const LinkFault& lf) {
  if (lf.bidirectional) {
    add_link(lf.from, lf.dim, lf.dir);
  } else {
    add_directed_link(lf.from, lf.dim, lf.dir);
  }
}

bool FaultSet::link_faulty(NodeId from, int dim, Dir dir) const {
  if (bad_directed_links_.empty()) return false;
  return std::binary_search(bad_directed_links_.begin(),
                            bad_directed_links_.end(),
                            shape_->link_id(from, dim, dir));
}

FaultSet FaultSet::random_nodes(const MeshShape& shape, std::int64_t count,
                                Rng& rng) {
  if (count < 0 || count > shape.size()) {
    throw std::invalid_argument(
        std::to_string(count) + " random node faults do not fit " +
        shape.to_string() + " (" + std::to_string(shape.size()) +
        " nodes)");
  }
  FaultSet fs(shape);
  for (NodeId id : sample_without_replacement(shape.size(), count, rng)) {
    fs.add_node(id);
  }
  return fs;
}

FaultSnapshot::FaultSnapshot(std::shared_ptr<const MeshShape> shape,
                             const FaultSet& faults)
    : shape(std::move(shape)), faults(faults, *this->shape) {}

std::shared_ptr<const FaultSnapshot> seal(
    std::shared_ptr<const MeshShape> shape, const FaultSet& faults) {
  return std::make_shared<const FaultSnapshot>(std::move(shape), faults);
}

std::shared_ptr<const FaultSnapshot> seal(const FaultSet& faults) {
  return seal(std::make_shared<const MeshShape>(faults.shape()), faults);
}

std::optional<FaultDelta> fault_delta(const FaultSet& then,
                                      const FaultSet& now) {
  FaultDelta delta;
  const std::vector<NodeId>& then_nodes = then.node_faults();
  std::size_t a = 0;  // both sorted unique: one merge pass
  for (const NodeId id : now.node_faults()) {
    if (a < then_nodes.size() && then_nodes[a] == id) {
      ++a;
    } else {
      delta.nodes.push_back(id);
    }
  }
  if (a != then_nodes.size()) return std::nullopt;

  // Each logical link fault is one sortable key: its directed link id with
  // the bidirectional flag as the low bit. A set lists each logical fault
  // once, so `now` contains `then` iff every key of `then` is matched.
  const MeshShape& shape = now.shape();
  auto key = [&shape](const LinkFault& lf) {
    return shape.link_id(lf.from, lf.dim, lf.dir) * 2 +
           (lf.bidirectional ? 1 : 0);
  };
  std::vector<LinkId> then_keys;
  then_keys.reserve(then.link_faults().size());
  for (const LinkFault& lf : then.link_faults()) then_keys.push_back(key(lf));
  std::sort(then_keys.begin(), then_keys.end());
  std::size_t matched = 0;
  for (const LinkFault& lf : now.link_faults()) {
    if (std::binary_search(then_keys.begin(), then_keys.end(), key(lf))) {
      ++matched;
    } else {
      delta.links.push_back(lf);
    }
  }
  if (matched != then_keys.size()) return std::nullopt;
  return delta;
}

}  // namespace lamb
