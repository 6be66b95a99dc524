#include "wormhole/route_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "reach/route.hpp"

namespace lamb::wormhole {

namespace {

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::counter("wormhole.route_cache.hit");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::counter("wormhole.route_cache.miss");
  return c;
}

// adopt()'s staleness predicate: a flood may have used a dead element iff
// it contains a delta node or both endpoints of a delta link (see adopt()
// in the header for the argument).
class StaleTest {
 public:
  StaleTest(const MeshShape& shape, const std::vector<NodeId>& delta_nodes,
            const std::vector<LinkFault>& delta_links)
      : nodes_(&delta_nodes) {
    // Pre-resolve the link endpoints once (delta is tiny, caches are not).
    link_ends_.reserve(delta_links.size());
    for (const LinkFault& lf : delta_links) {
      Point nb;
      if (!shape.neighbor(lf.from, lf.dim, lf.dir, &nb)) continue;
      link_ends_.emplace_back(shape.index(lf.from), shape.index(nb));
    }
  }

  bool operator()(const Bits& flood) const {
    for (NodeId id : *nodes_) {
      if (flood.test(id)) return true;
    }
    for (const auto& [a, b] : link_ends_) {
      if (flood.test(a) && flood.test(b)) return true;
    }
    return false;
  }

 private:
  const std::vector<NodeId>* nodes_;
  std::vector<std::pair<NodeId, NodeId>> link_ends_;
};

// Picks the k = 2 intermediate. The chosen node and the rng draws are
// those of the plain scan: visit F∩B (forward flood of src AND backward
// flood of dst) in ascending id order, score u by l1(src, u) +
// l1(u, dst), keep the minimum and break ties by reservoir sampling --
// or, with a NodeLoad, toward the first least-loaded node. This class
// gets there without copying the floods or dividing ids.
//
// The length separates by dimension: sum_j c_j[u_j], where
// c_j[x] = dist_j(src_j, x) + dist_j(x, dst_j) (the shorter arc on a
// torus). Walking the id space as nested loops, highest dimension
// outermost, is ascending id order. A subtree is skipped when its fixed
// coordinates plus the per-dimension minima of its free ones already
// exceed the best total: none of its nodes could reach the tie or
// replace step of the plain scan, because the best only falls. Once the
// best equals lb = sum_j min_x c_j[x], this leaves exactly the nodes
// whose every coordinate attains its minimum (the src/dst bounding box on
// a mesh). Ties met before lb still draw from rng, as in the plain scan.
//
// Cost windows keep the loops off the skipped coordinates. For each
// dimension j and slack t, [lo_j(t), hi_j(t)] is the smallest interval
// holding every x with c_j[x] <= t: on a mesh that set is itself an
// interval around [min(src_j, dst_j), max(src_j, dst_j)], on a torus an
// arc, which may wrap and then bounds to the whole row. A loop over
// dimension j with slack t = best - partial - floor_j runs over that
// window only, and a row masks its F∩B words to it. The window is a
// superset of the coordinates the bound test would keep, and the test
// itself stays on every coordinate and every candidate, so the nodes
// offered, their order, and hence every rng draw and the load-aware pick,
// are exactly the plain scan's.
class IntermediateScan {
 public:
  IntermediateScan(const MeshShape& shape, const Bits& forward,
                   const Bits& backward, const Point& src, const Point& dst,
                   std::vector<std::int64_t>* tables, Rng& rng,
                   NodeLoad* load)
      : shape_(shape),
        forward_(forward.words().data()),
        backward_(backward.words().data()),
        rng_(rng),
        load_(load) {
    // Per dimension: c_j (n entries), then lo_j and hi_j (2n each, enough
    // for the span of c_j: at most 2(n - 1) on a mesh, n on a torus).
    std::size_t cells = 0;
    for (int j = 0; j < shape.dim(); ++j) {
      cells += 5 * static_cast<std::size_t>(shape.width(j));
    }
    tables->resize(cells);
    std::int64_t* c = tables->data();
    for (int j = 0; j < shape.dim(); ++j) {
      const Coord n = shape.width(j);
      const auto dist = [&](Coord a, Coord b) {
        const std::int64_t d = std::abs(static_cast<std::int64_t>(a) - b);
        return shape.wraps() ? std::min<std::int64_t>(d, n - d) : d;
      };
      std::int64_t low = std::numeric_limits<std::int64_t>::max();
      std::int64_t high = 0;
      for (Coord x = 0; x < n; ++x) {
        c[x] = dist(src[j], x) + dist(x, dst[j]);
        low = std::min(low, c[x]);
        high = std::max(high, c[x]);
      }
      // lo/hi at slack low + u: first the extreme x of cost exactly
      // low + u, then running extremes over u.
      std::int64_t* lo = c + n;
      std::int64_t* hi = lo + 2 * n;
      const std::int64_t span = high - low;
      std::fill(lo, lo + span + 1, n);
      std::fill(hi, hi + span + 1, -1);
      for (Coord x = 0; x < n; ++x) {
        const std::int64_t u = c[x] - low;
        lo[u] = std::min<std::int64_t>(lo[u], x);
        hi[u] = std::max<std::int64_t>(hi[u], x);
      }
      for (std::int64_t u = 1; u <= span; ++u) {
        lo[u] = std::min(lo[u], lo[u - 1]);
        hi[u] = std::max(hi[u], hi[u - 1]);
      }
      cost_[j] = c;
      lo_[j] = lo;
      hi_[j] = hi;
      min_[j] = low;
      span_[j] = span;
      c += 5 * static_cast<std::size_t>(n);
      floor_[j + 1] = floor_[j] + low;
    }
  }

  // Returns the chosen intermediate, or -1 when F∩B is empty.
  NodeId run() {
    visit(shape_.dim() - 1, 0, 0);
    return chosen_;
  }

  // Length of the route through the chosen intermediate.
  std::int64_t best() const { return best_; }

 private:
  // The window of dimension j at slack t: lo_j(t), or width(j) (empty)
  // when no coordinate costs t or less; and hi_j(t), or -1.
  std::int64_t window_lo(int j, std::int64_t t) const {
    if (t < min_[j]) return shape_.width(j);
    return lo_[j][std::min(t - min_[j], span_[j])];
  }
  std::int64_t window_hi(int j, std::int64_t t) const {
    if (t < min_[j]) return -1;
    return hi_[j][std::min(t - min_[j], span_[j])];
  }

  // Nodes whose dimensions above j are fixed (id offset `base`, summed
  // cost `partial`), in ascending id order.
  void visit(int j, NodeId base, std::int64_t partial) {
    if (j == 0) {
      visit_row(base, partial);
      return;
    }
    const std::int64_t* c = cost_[j];
    const NodeId stride = shape_.stride(j);
    const std::int64_t fixed = partial + floor_[j];
    std::int64_t hi = window_hi(j, best_ - fixed);
    for (std::int64_t x = window_lo(j, best_ - fixed); x <= hi; ++x) {
      const std::int64_t p = partial + c[x];
      if (p + floor_[j] > best_) continue;
      visit(j - 1, base + x * stride, p);
      // The best may have fallen, and the window with it.
      hi = std::min(hi, window_hi(j, best_ - fixed));
    }
  }

  // The dimension-0 row [base, base + width(0)) of F∩B, masked to the
  // window of slack best - partial.
  void visit_row(NodeId base, std::int64_t partial) {
    const std::int64_t* c = cost_[0];
    const NodeId begin = base + window_lo(0, best_ - partial);
    const NodeId end = base + window_hi(0, best_ - partial) + 1;
    if (begin >= end) return;
    for (NodeId wi = begin >> 6; wi <= (end - 1) >> 6; ++wi) {
      const NodeId lo = wi * 64;
      std::uint64_t w = forward_[wi] & backward_[wi];
      if (lo < begin) w &= ~std::uint64_t{0} << (begin - lo);
      if (lo + 64 > end) w &= ~std::uint64_t{0} >> (lo + 64 - end);
      while (w != 0) {
        const NodeId u = lo + std::countr_zero(w);
        w &= w - 1;
        const std::int64_t total = partial + c[u - base];
        if (total <= best_) offer(u, total);
      }
    }
  }

  // u scores total <= best_.
  void offer(NodeId u, std::int64_t total) {
    if (load_ != nullptr) {
      // Length first, then least-used intermediate.
      const std::int32_t u_load = load_->counts[static_cast<std::size_t>(u)];
      if (total < best_ || u_load < best_load_) {
        best_ = total;
        best_load_ = u_load;
        chosen_ = u;
      }
      return;
    }
    if (total < best_) {
      best_ = total;
      chosen_ = u;
      ties_ = 1;
    } else {
      ++ties_;
      if (rng_.below(static_cast<std::uint64_t>(ties_)) == 0) chosen_ = u;
    }
  }

  const MeshShape& shape_;
  const std::uint64_t* forward_;
  const std::uint64_t* backward_;
  Rng& rng_;
  NodeLoad* load_;
  const std::int64_t* cost_[kMaxDim] = {};  // c_j, indexed by coordinate
  const std::int64_t* lo_[kMaxDim] = {};    // lo_j(min_j + u), u <= span_j
  const std::int64_t* hi_[kMaxDim] = {};    // hi_j(min_j + u)
  std::int64_t min_[kMaxDim] = {};          // min_x c_j[x]
  std::int64_t span_[kMaxDim] = {};         // max_x c_j[x] - min_j
  std::int64_t floor_[kMaxDim + 1] = {};    // [j]: sum of min c_i, i < j
  std::int64_t best_ = std::numeric_limits<std::int64_t>::max();
  std::int32_t best_load_ = std::numeric_limits<std::int32_t>::max();
  NodeId chosen_ = -1;
  std::int64_t ties_ = 0;
};

}  // namespace

int Route::turns() const {
  int turns = 0;
  bool have_prev = false;
  int prev_dim = -1;
  for (const Hop& hop : hops) {
    if (have_prev && hop.dim != prev_dim) ++turns;
    prev_dim = hop.dim;
    have_prev = true;
  }
  return turns;
}

void append_round(const MeshShape& shape, const Point& from, const Point& to,
                  const DimOrder& order, int round, Route* out) {
  // dim_ordered_route's legs, written as hops without building them.
  for (int t = 0; t < order.dim(); ++t) {
    const int j = order.at(t);
    Dir dir = Dir::Pos;
    Coord steps = 0;
    segment_geometry(shape, j, from[j], to[j], &dir, &steps);
    out->hops.insert(out->hops.end(), static_cast<std::size_t>(steps),
                     Hop{j, dir, round});
  }
}

std::int64_t NodeLoad::total() const {
  std::int64_t sum = 0;
  for (const std::int32_t c : counts) sum += c;
  return sum;
}

std::int32_t NodeLoad::max() const {
  std::int32_t best = 0;
  for (const std::int32_t c : counts) best = std::max(best, c);
  return best;
}

double NodeLoad::mean_nonzero() const {
  std::int64_t sum = 0;
  std::int64_t n = 0;
  for (const std::int32_t c : counts) {
    if (c > 0) {
      sum += c;
      ++n;
    }
  }
  return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

NodeId NodeLoad::hottest() const {
  NodeId best = -1;
  std::int32_t best_count = 0;
  for (std::size_t id = 0; id < counts.size(); ++id) {
    if (counts[id] > best_count) {
      best_count = counts[id];
      best = static_cast<NodeId>(id);
    }
  }
  return best;
}

void NodeLoad::reset() { std::fill(counts.begin(), counts.end(), 0); }

RouteCache::RouteCache(std::shared_ptr<const FaultSnapshot> snapshot,
                       MultiRoundOrder orders)
    : snapshot_(std::move(snapshot)), orders_(std::move(orders)) {}

RouteCache::RouteCache(const MeshShape& shape, const FaultSet& faults,
                       MultiRoundOrder orders)
    : RouteCache(seal(std::make_shared<const MeshShape>(shape), faults),
                 std::move(orders)) {}

std::optional<RouteCache::AdoptStats> RouteCache::adopt(
    const RouteCache& prev) {
  if (!(*prev.snapshot_->shape == *snapshot_->shape) ||
      prev.orders_ != orders_) {
    return std::nullopt;
  }
  const std::optional<FaultDelta> delta =
      fault_delta(prev.snapshot_->faults, snapshot_->faults);
  if (!delta) return std::nullopt;
  std::scoped_lock lock(mu_, prev.mu_);
  static obs::Counter& adopts = obs::counter("wormhole.route_cache.adopts");
  static obs::Counter& retained =
      obs::counter("wormhole.route_cache.retained");
  static obs::Counter& dropped = obs::counter("wormhole.route_cache.dropped");
  adopts.add();
  const StaleTest stale(*snapshot_->shape, delta->nodes, delta->links);
  AdoptStats stats;
  // Sized for prev's memo, so the vends that refill it do not rehash.
  floods_.reserve(prev.floods_.size());
  for (const auto& [key, flood] : prev.floods_) {
    if (stale(*flood)) {
      ++stats.dropped;
    } else if (floods_.emplace(key, flood).second) {
      ++stats.retained;
    }
  }
  retained.add(stats.retained);
  dropped.add(stats.dropped);
  return stats;
}

const FloodOracle& RouteCache::oracle() {
  if (!oracle_) oracle_.emplace(*snapshot_->shape, snapshot_->faults);
  return *oracle_;
}

const Bits& RouteCache::flood(NodeId endpoint, Side side) {
  const std::int64_t key = 2 * endpoint + static_cast<std::int64_t>(side);
  auto it = floods_.find(key);
  if (it != floods_.end()) {
    ++hits_;
    hit_counter().add();
    return *it->second;
  }
  ++misses_;
  miss_counter().add();
  const Point p = snapshot_->shape->point(endpoint);
  auto built = std::make_shared<const Bits>(
      side == Side::kForward ? oracle().reach1_from(p, orders_.front())
                             : oracle().reach1_to(p, orders_.back()));
  return *floods_.emplace(key, std::move(built)).first->second;
}

// The shortest-intermediate DP. cost[r][u] = fewest hops to be at u after
// r + 1 rounds, and pred[r][u] (r >= 1) the first (lowest-id) round-r
// start that attains it. The last round picks, among nodes that can
// 1-reach dst, the minimum total and breaks ties by reservoir sampling --
// the k = 2 scan's rule.
std::vector<NodeId> RouteCache::pick_chain(NodeId src, NodeId dst, Rng& rng) {
  constexpr std::int64_t kUnreachable = std::numeric_limits<std::int64_t>::max();
  const MeshShape& shape = *snapshot_->shape;
  const FloodOracle& middle = oracle();  // floods the middle rounds
  const int k = static_cast<int>(orders_.size());
  const std::size_t n = static_cast<std::size_t>(shape.size());
  const Point src_p = shape.point(src);
  const Point dst_p = shape.point(dst);
  std::vector<std::vector<std::int64_t>> cost(
      static_cast<std::size_t>(k - 1), std::vector<std::int64_t>(n, kUnreachable));
  std::vector<std::vector<NodeId>> pred(static_cast<std::size_t>(k - 1),
                                        std::vector<NodeId>(n, -1));

  flood(src, Side::kForward).for_each([&](NodeId u) {
    cost[0][static_cast<std::size_t>(u)] =
        shape.l1_distance(src_p, shape.point(u));
  });
  for (std::size_t r = 1; r + 1 < static_cast<std::size_t>(k); ++r) {
    for (std::size_t u = 0; u < n; ++u) {
      const std::int64_t c = cost[r - 1][u];
      if (c == kUnreachable) continue;
      const Point u_p = shape.point(static_cast<NodeId>(u));
      middle.reach1_from(u_p, orders_[r]).for_each([&](NodeId w) {
        const std::int64_t nc = c + shape.l1_distance(u_p, shape.point(w));
        if (nc < cost[r][static_cast<std::size_t>(w)]) {
          cost[r][static_cast<std::size_t>(w)] = nc;
          pred[r][static_cast<std::size_t>(w)] = static_cast<NodeId>(u);
        }
      });
    }
  }

  const std::vector<std::int64_t>& last = cost.back();
  std::int64_t best = kUnreachable;
  NodeId chosen = -1;
  std::int64_t ties = 0;
  flood(dst, Side::kBackward).for_each([&](NodeId u) {
    const std::int64_t c = last[static_cast<std::size_t>(u)];
    if (c == kUnreachable) return;
    const std::int64_t total = c + shape.l1_distance(shape.point(u), dst_p);
    if (total < best) {
      best = total;
      chosen = u;
      ties = 1;
    } else if (total == best) {
      ++ties;
      if (rng.below(static_cast<std::uint64_t>(ties)) == 0) chosen = u;
    }
  });
  if (chosen < 0) return {};

  std::vector<NodeId> chain(static_cast<std::size_t>(k - 1));
  chain.back() = chosen;
  for (std::size_t r = chain.size() - 1; r >= 1; --r) {
    chain[r - 1] = pred[r][static_cast<std::size_t>(chain[r])];
  }
  return chain;
}

std::optional<Route> RouteCache::build(NodeId src, NodeId dst, Rng& rng,
                                       NodeLoad* load) {
  const MeshShape& shape = *snapshot_->shape;
  if (src < 0 || dst < 0 || src >= shape.size() || dst >= shape.size()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t k = orders_.size();
  const Point src_p = shape.point(src);
  const Point dst_p = shape.point(dst);
  Route route;
  route.src = src;
  route.dst = dst;
  if (k == 1) {
    if (!flood(src, Side::kForward).test(dst)) return std::nullopt;
  } else if (k == 2) {
    const Bits& forward = flood(src, Side::kForward);
    const Bits& backward = flood(dst, Side::kBackward);
    IntermediateScan scan(shape, forward, backward, src_p, dst_p,
                          &scan_tables_, rng, load);
    const NodeId chosen = scan.run();
    if (chosen < 0) return std::nullopt;
    route.intermediates.push_back(chosen);
    route.hops.reserve(static_cast<std::size_t>(scan.best()));
  } else {
    route.intermediates = pick_chain(src, dst, rng);
    if (route.intermediates.empty()) return std::nullopt;
  }

  Point at = src_p;
  for (std::size_t r = 0; r < k; ++r) {
    const Point to = r + 1 < k ? shape.point(route.intermediates[r]) : dst_p;
    append_round(shape, at, to, orders_[r], static_cast<int>(r), &route);
    at = to;
  }
  if (load != nullptr && k == 2) {
    // Charge every node the worm will occupy.
    ++load->counts[static_cast<std::size_t>(src)];
    at = src_p;
    for (const Hop& hop : route.hops) {
      Point next;
      shape.neighbor(at, hop.dim, hop.dir, &next);
      at = next;
      ++load->counts[static_cast<std::size_t>(shape.index(at))];
    }
  }
  return route;
}

}  // namespace lamb::wormhole
