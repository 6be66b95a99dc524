#include "reach/route.hpp"

namespace lamb {

void segment_geometry(const MeshShape& shape, int j, Coord a, Coord b,
                      Dir* dir, Coord* steps) {
  if (!shape.wraps()) {
    *dir = b >= a ? Dir::Pos : Dir::Neg;
    *steps = static_cast<Coord>(b >= a ? b - a : a - b);
    return;
  }
  const Coord n = shape.width(j);
  const Coord fwd = static_cast<Coord>(((b - a) % n + n) % n);
  const Coord bwd = static_cast<Coord>(n - fwd) % n;
  // Shorter way around; ties go positive.
  if (fwd <= bwd) {
    *dir = Dir::Pos;
    *steps = fwd;
  } else {
    *dir = Dir::Neg;
    *steps = bwd;
  }
}

std::vector<RouteSegment> dim_ordered_route(const MeshShape& shape,
                                            const Point& v, const Point& w,
                                            const DimOrder& order) {
  std::vector<RouteSegment> segments;
  segments.reserve(static_cast<std::size_t>(shape.dim()));
  Point cur = v;
  for (int t = 0; t < order.dim(); ++t) {
    const int j = order.at(t);
    RouteSegment seg;
    seg.from = cur;
    seg.dim = j;
    segment_geometry(shape, j, cur[j], w[j], &seg.dir, &seg.steps);
    segments.push_back(seg);
    cur[j] = w[j];
  }
  return segments;
}

std::vector<Point> route_nodes(const MeshShape& shape, const Point& v,
                               const Point& w, const DimOrder& order) {
  std::vector<Point> nodes{v};
  for (const RouteSegment& seg : dim_ordered_route(shape, v, w, order)) {
    Point cur = seg.from;
    for (Coord s = 0; s < seg.steps; ++s) {
      Point next;
      shape.neighbor(cur, seg.dim, seg.dir, &next);
      nodes.push_back(next);
      cur = next;
    }
  }
  return nodes;
}

bool route_clear(const MeshShape& shape, const FaultSet& faults,
                 const Point& v, const Point& w, const DimOrder& order) {
  if (faults.node_faulty(v)) return false;
  for (const RouteSegment& seg : dim_ordered_route(shape, v, w, order)) {
    Point cur = seg.from;
    for (Coord s = 0; s < seg.steps; ++s) {
      if (faults.link_faulty(cur, seg.dim, seg.dir)) return false;
      Point next;
      shape.neighbor(cur, seg.dim, seg.dir, &next);
      if (faults.node_faulty(next)) return false;
      cur = next;
    }
  }
  return true;
}

int count_turns(const std::vector<RouteSegment>& segments) {
  int turns = 0;
  int last_dim = -1;
  for (const RouteSegment& seg : segments) {
    if (seg.steps == 0) continue;
    if (last_dim >= 0 && seg.dim != last_dim) ++turns;
    last_dim = seg.dim;
  }
  return turns;
}

std::int64_t count_hops(const std::vector<RouteSegment>& segments) {
  std::int64_t hops = 0;
  for (const RouteSegment& seg : segments) hops += seg.steps;
  return hops;
}

}  // namespace lamb
