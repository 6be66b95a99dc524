// d-dimensional mesh and torus topology (paper Definition 2.1, Section 7).
//
// A mesh M_d(n1,...,nd) has nodes (v1,...,vd) with 0 <= vi < ni and a pair
// of directed links between every two nodes at L1 distance 1. The torus
// variant additionally has wrap-around links in every dimension. Node
// coordinates use a fixed-capacity array (kMaxDim) so hot loops never
// allocate; the library supports up to 8 dimensions, far beyond the paper's
// d = 3 focus.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace lamb {

inline constexpr int kMaxDim = 8;

using Coord = std::int32_t;
using NodeId = std::int64_t;
using LinkId = std::int64_t;

// A point in up-to-kMaxDim dimensions. Unused trailing coordinates are 0,
// so Points of the same mesh compare with plain ==.
struct Point {
  std::array<Coord, kMaxDim> c{};

  Point() = default;
  Point(std::initializer_list<Coord> coords) {
    int i = 0;
    for (Coord v : coords) c[static_cast<std::size_t>(i++)] = v;
  }

  Coord& operator[](int i) { return c[static_cast<std::size_t>(i)]; }
  Coord operator[](int i) const { return c[static_cast<std::size_t>(i)]; }

  friend bool operator==(const Point&, const Point&) = default;
};

// Direction of travel along one dimension.
enum class Dir : std::int8_t { Neg = -1, Pos = +1 };

inline int dir_sign(Dir d) { return static_cast<int>(d); }
inline Dir opposite(Dir d) { return d == Dir::Pos ? Dir::Neg : Dir::Pos; }

// Shape of a mesh or torus. Immutable after construction.
class MeshShape {
 public:
  // Mesh (no wrap links).
  static MeshShape mesh(std::vector<Coord> widths);
  // Torus (wrap links in every dimension).
  static MeshShape torus(std::vector<Coord> widths);
  // d-dimensional hypercube M_d(2) (paper Section 7).
  static MeshShape hypercube(int d);
  // Square helpers: M_d(n).
  static MeshShape cube(int d, Coord n) {
    return mesh(std::vector<Coord>(static_cast<std::size_t>(d), n));
  }

  int dim() const { return dim_; }
  Coord width(int j) const { return widths_[static_cast<std::size_t>(j)]; }
  bool wraps() const { return wraps_; }
  NodeId size() const { return size_; }
  NodeId stride(int j) const { return strides_[static_cast<std::size_t>(j)]; }

  bool in_bounds(const Point& p) const;

  // Row-major-style linearization: dimension 0 varies fastest.
  NodeId index(const Point& p) const {
    NodeId id = 0;
    for (int j = 0; j < dim_; ++j) id += static_cast<NodeId>(p[j]) * stride(j);
    return id;
  }

  Point point(NodeId id) const {
    Point p;
    for (int j = 0; j < dim_; ++j) {
      p[j] = static_cast<Coord>(id % widths_[static_cast<std::size_t>(j)]);
      id /= widths_[static_cast<std::size_t>(j)];
    }
    return p;
  }

  // Neighbor of p one step along dimension j in direction d, handling torus
  // wrap. Returns false if the step leaves a (non-wrapping) mesh.
  bool neighbor(const Point& p, int j, Dir d, Point* out) const;

  // Directed link identifier: (node, dimension, direction). Valid only for
  // links that exist in this shape.
  LinkId link_id(NodeId from, int j, Dir d) const {
    return (from * dim_ + j) * 2 + (d == Dir::Pos ? 1 : 0);
  }
  LinkId link_id(const Point& from, int j, Dir d) const {
    return link_id(index(from), j, d);
  }

  // Total number of directed links.
  std::int64_t num_links() const;

  // L1 distance; on a torus each per-dimension distance is the shorter arc.
  std::int64_t l1_distance(const Point& a, const Point& b) const;

  std::string to_string() const;

  friend bool operator==(const MeshShape& a, const MeshShape& b) {
    return a.widths_ == b.widths_ && a.wraps_ == b.wraps_;
  }

 private:
  MeshShape(std::vector<Coord> widths, bool wraps);

  std::vector<Coord> widths_;
  std::vector<NodeId> strides_;
  NodeId size_ = 0;
  int dim_ = 0;
  bool wraps_ = false;
};

}  // namespace lamb
