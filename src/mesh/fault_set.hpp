// Fault sets F = (F_N, F_L) over a mesh (paper Definition 2.4).
//
// Node faults make every incident link unusable. Link faults are directed
// (the paper's footnote 1 allows a link to fail in only one direction);
// the common case of a bidirectional link failure is a single logical
// fault that blocks both directions. The paper's fault count f = |F_N| +
// |F_L| counts each logical fault once, and we follow that: f() counts
// node faults plus *logical* link faults (a bidirectional failure added
// via add_link() counts once even though it blocks two directed links).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/rng.hpp"

namespace lamb {

// A logical link fault: the link(s) between `from` and its neighbor one
// step along `dim` in direction `dir`.
struct LinkFault {
  Point from;
  int dim = 0;
  Dir dir = Dir::Pos;
  bool bidirectional = true;

  friend bool operator==(const LinkFault&, const LinkFault&) = default;
};

class FaultSet {
 public:
  explicit FaultSet(const MeshShape& shape);

  const MeshShape& shape() const { return *shape_; }

  void add_node(const Point& p);
  void add_node(NodeId id) { add_node(shape_->point(id)); }
  // Bidirectional link failure (counts as one fault).
  void add_link(const Point& from, int dim, Dir dir);
  // Single-direction link failure (counts as one fault).
  void add_directed_link(const Point& from, int dim, Dir dir);

  bool node_faulty(NodeId id) const {
    return node_bad_[static_cast<std::size_t>(id)] != 0;
  }
  bool node_faulty(const Point& p) const { return node_faulty(shape_->index(p)); }
  bool node_good(NodeId id) const { return !node_faulty(id); }

  // True when the directed link from `from` along (dim, dir) is unusable
  // because of an explicit link fault (node faults are checked separately).
  bool link_faulty(NodeId from, int dim, Dir dir) const;
  bool link_faulty(const Point& from, int dim, Dir dir) const {
    return link_faulty(shape_->index(from), dim, dir);
  }

  const std::vector<NodeId>& node_faults() const { return node_faults_; }
  const std::vector<LinkFault>& link_faults() const { return link_faults_; }

  std::int64_t num_node_faults() const {
    return static_cast<std::int64_t>(node_faults_.size());
  }
  std::int64_t num_link_faults() const {
    return static_cast<std::int64_t>(link_faults_.size());
  }
  // Total fault count f = |F_N| + |F_L|.
  std::int64_t f() const { return num_node_faults() + num_link_faults(); }

  NodeId num_good_nodes() const { return shape_->size() - num_node_faults(); }

  // Uniformly random node faults without replacement (the simulation model
  // of paper Section 8). Throws std::invalid_argument unless
  // 0 <= count <= shape.size().
  static FaultSet random_nodes(const MeshShape& shape, std::int64_t count,
                               Rng& rng);

 private:
  const MeshShape* shape_;  // non-owning; shapes outlive fault sets
  std::vector<std::uint8_t> node_bad_;
  std::vector<NodeId> node_faults_;         // sorted, unique
  std::vector<LinkFault> link_faults_;      // insertion order
  std::vector<LinkId> bad_directed_links_;  // sorted, unique
};

// The faults `now` adds over `then`, in `now`'s order: node ids ascending,
// link faults in insertion order.
struct FaultDelta {
  std::vector<NodeId> nodes;
  std::vector<LinkFault> links;
};

// `now` minus `then`, or nullopt when `now` does not contain every fault
// of `then`. Link faults match exactly, `bidirectional` included, so a
// directed fault is not contained in a bidirectional one on the same link.
// Both sets must be over equal shapes. O(N + L log L).
std::optional<FaultDelta> fault_delta(const FaultSet& then,
                                      const FaultSet& now);

}  // namespace lamb
