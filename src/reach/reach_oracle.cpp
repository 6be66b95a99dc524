#include "reach/reach_oracle.hpp"

#include <cassert>

namespace lamb {

ReachOracle::ReachOracle(const MeshShape& shape, const FaultSet& faults)
    : shape_(&shape),
      faults_(&faults),
      have_link_faults_(faults.num_link_faults() > 0) {
  const int d = shape.dim();
  const NodeId n = shape.size();

  node_pfx_.resize(static_cast<std::size_t>(d));
  for (int j = 0; j < d; ++j) {
    auto& np = node_pfx_[static_cast<std::size_t>(j)];
    np.resize(static_cast<std::size_t>(n));
    const NodeId st = shape.stride(j);
    const Coord w = shape.width(j);
    for (NodeId id = 0; id < n; ++id) {
      const Coord x = static_cast<Coord>((id / st) % w);
      const std::int32_t below =
          x == 0 ? 0 : np[static_cast<std::size_t>(id - st)];
      np[static_cast<std::size_t>(id)] =
          below + (faults.node_faulty(id) ? 1 : 0);
    }
  }
  if (!have_link_faults_) return;
  pos_link_pfx_.resize(static_cast<std::size_t>(d));
  neg_link_pfx_.resize(static_cast<std::size_t>(d));
  for (int j = 0; j < d; ++j) {
    auto& pl = pos_link_pfx_[static_cast<std::size_t>(j)];
    auto& nl = neg_link_pfx_[static_cast<std::size_t>(j)];
    pl.resize(static_cast<std::size_t>(n));
    nl.resize(static_cast<std::size_t>(n));
    const NodeId st = shape.stride(j);
    const Coord w = shape.width(j);
    for (NodeId id = 0; id < n; ++id) {
      const Coord x = static_cast<Coord>((id / st) % w);
      if (x == 0) {
        pl[static_cast<std::size_t>(id)] = 0;
        nl[static_cast<std::size_t>(id)] = 0;
      } else {
        pl[static_cast<std::size_t>(id)] =
            pl[static_cast<std::size_t>(id - st)] +
            (faults.link_faulty(id - st, j, Dir::Pos) ? 1 : 0);
        nl[static_cast<std::size_t>(id)] =
            nl[static_cast<std::size_t>(id - st)] +
            (faults.link_faulty(id, j, Dir::Neg) ? 1 : 0);
      }
    }
  }
}

std::int64_t ReachOracle::faulty_nodes(NodeId line0, int j, Coord lo,
                                       Coord hi) const {
  assert(lo <= hi);
  const NodeId st = shape_->stride(j);
  const auto& np = node_pfx_[static_cast<std::size_t>(j)];
  const std::int64_t upto_hi = np[static_cast<std::size_t>(line0 + hi * st)];
  const std::int64_t below_lo =
      lo == 0 ? 0 : np[static_cast<std::size_t>(line0 + (lo - 1) * st)];
  return upto_hi - below_lo;
}

std::int64_t ReachOracle::faulty_pos_links(NodeId line0, int j, Coord lo,
                                           Coord hi) const {
  if (lo > hi) return 0;
  const NodeId st = shape_->stride(j);
  const auto& pl = pos_link_pfx_[static_cast<std::size_t>(j)];
  // pl at coord x counts sources in [0, x-1]; sources in [lo, hi] =
  // pl[hi+1] - pl[lo]. hi+1 <= width-1 because non-wrap sources stop at
  // width-2.
  return pl[static_cast<std::size_t>(line0 + (hi + 1) * st)] -
         pl[static_cast<std::size_t>(line0 + lo * st)];
}

std::int64_t ReachOracle::faulty_neg_links(NodeId line0, int j, Coord lo,
                                           Coord hi) const {
  if (lo > hi) return 0;
  assert(lo >= 1);
  const NodeId st = shape_->stride(j);
  const auto& nl = neg_link_pfx_[static_cast<std::size_t>(j)];
  // nl at coord x counts sources in [1, x]; sources in [lo, hi] =
  // nl[hi] - nl[lo-1].
  return nl[static_cast<std::size_t>(line0 + hi * st)] -
         nl[static_cast<std::size_t>(line0 + (lo - 1) * st)];
}

bool ReachOracle::segment_clear(NodeId line0, int j, Coord a, Coord b) const {
  const Coord n = shape_->width(j);
  if (a == b) {
    return faulty_nodes(line0, j, a, a) == 0;
  }
  if (!shape_->wraps()) {
    const Coord lo = a < b ? a : b;
    const Coord hi = a < b ? b : a;
    if (faulty_nodes(line0, j, lo, hi) != 0) return false;
    if (!have_link_faults_) return true;
    if (a < b) return faulty_pos_links(line0, j, a, b - 1) == 0;
    return faulty_neg_links(line0, j, b + 1, a) == 0;
  }
  // Torus: travel the shorter way (ties positive), possibly wrapping.
  const Coord fwd = static_cast<Coord>(((b - a) % n + n) % n);
  const Coord bwd = static_cast<Coord>(n - fwd);
  const NodeId st = shape_->stride(j);
  if (fwd <= bwd) {
    if (a < b) {  // no wrap
      if (faulty_nodes(line0, j, a, b) != 0) return false;
      return !have_link_faults_ || faulty_pos_links(line0, j, a, b - 1) == 0;
    }
    // Wraps through width-1 -> 0.
    if (faulty_nodes(line0, j, a, n - 1) != 0) return false;
    if (faulty_nodes(line0, j, 0, b) != 0) return false;
    if (!have_link_faults_) return true;
    if (faulty_pos_links(line0, j, a, n - 2) != 0) return false;
    if (faulty_pos_links(line0, j, 0, b - 1) != 0) return false;
    return !faults_->link_faulty(line0 + (n - 1) * st, j, Dir::Pos);
  }
  if (a > b) {  // no wrap
    if (faulty_nodes(line0, j, b, a) != 0) return false;
    return !have_link_faults_ || faulty_neg_links(line0, j, b + 1, a) == 0;
  }
  // Wraps through 0 -> width-1.
  if (faulty_nodes(line0, j, 0, a) != 0) return false;
  if (faulty_nodes(line0, j, b, n - 1) != 0) return false;
  if (!have_link_faults_) return true;
  if (faulty_neg_links(line0, j, 1, a) != 0) return false;
  if (faulty_neg_links(line0, j, b + 1, n - 1) != 0) return false;
  return !faults_->link_faulty(line0, j, Dir::Neg);
}

bool ReachOracle::reach1(const Point& v, const Point& w,
                         const DimOrder& order) const {
  Point cur = v;
  NodeId id = shape_->index(v);
  for (int t = 0; t < order.dim(); ++t) {
    const int j = order.at(t);
    const NodeId st = shape_->stride(j);
    const NodeId line0 = id - static_cast<NodeId>(cur[j]) * st;
    if (!segment_clear(line0, j, cur[j], w[j])) return false;
    id = line0 + static_cast<NodeId>(w[j]) * st;
    cur[j] = w[j];
  }
  return true;
}

}  // namespace lamb
