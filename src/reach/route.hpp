// Explicit dimension-ordered routes: the unique pi-route between two nodes
// as a list of axis-aligned segments, plus helpers to walk it hop by hop.
// Used by the brute-force reachability check, the wormhole route picker
// (RouteCache), the serving layer's one-round fallback and the
// turn-counting analyses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

// One axis-aligned piece of a route: starting at `from`, travel `steps`
// hops along `dim` in direction `dir`. `steps` may be 0 (no movement in
// that dimension). On a torus the walk wraps.
struct RouteSegment {
  Point from;
  int dim = 0;
  Dir dir = Dir::Pos;
  Coord steps = 0;
};

// Direction and hop count of the leg from coordinate a to b in dimension
// j: on a torus the shorter way around, ties toward Dir::Pos.
void segment_geometry(const MeshShape& shape, int j, Coord a, Coord b,
                      Dir* dir, Coord* steps);

// The unique pi-route from v to w, one segment_geometry leg per
// dimension.
std::vector<RouteSegment> dim_ordered_route(const MeshShape& shape,
                                            const Point& v, const Point& w,
                                            const DimOrder& order);

// All nodes visited by the route, in order, starting with v and ending
// with w.
std::vector<Point> route_nodes(const MeshShape& shape, const Point& v,
                               const Point& w, const DimOrder& order);

// Reference implementation of (F, pi)-reachability (Definition 2.5.1) by
// walking the route node by node and link by link. O(d * n) per query;
// the ReachOracle gives the same answer in O(d).
bool route_clear(const MeshShape& shape, const FaultSet& faults,
                 const Point& v, const Point& w, const DimOrder& order);

// Number of turns (changes of travel dimension) in a segment list.
int count_turns(const std::vector<RouteSegment>& segments);

// Total hop count of a segment list.
std::int64_t count_hops(const std::vector<RouteSegment>& segments);

}  // namespace lamb
