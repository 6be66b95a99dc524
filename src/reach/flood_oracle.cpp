#include "reach/flood_oracle.hpp"

#include <cstdint>
#include <utility>

#include "obs/obs.hpp"

namespace lamb {

namespace {

using Word = std::uint64_t;

// out[i] |= post(i, word i of the set whose word w is pre(w), shifted by
// `shift` bit positions -- toward higher ids when positive). Bits shifted
// past either end are dropped.
template <typename Pre, typename Post>
void or_shifted(Word* out, std::int64_t nwords, NodeId shift, Pre pre,
                Post post) {
  const NodeId dist = shift >= 0 ? shift : -shift;
  const std::int64_t q = dist >> 6;
  const int b = static_cast<int>(dist & 63);
  if (shift >= 0) {
    for (std::int64_t i = q; i < nwords; ++i) {
      Word w = pre(i - q) << b;
      if (b != 0 && i > q) w |= pre(i - q - 1) >> (64 - b);
      out[i] |= post(i, w);
    }
  } else {
    for (std::int64_t i = 0; i + q < nwords; ++i) {
      Word w = pre(i + q) >> b;
      if (b != 0 && i + q + 1 < nwords) w |= pre(i + q + 1) << (64 - b);
      out[i] |= post(i, w);
    }
  }
}

std::int64_t num_words(const Bits& b) {
  return static_cast<std::int64_t>(b.words().size());
}

// { v : lo <= v[j] < hi }.
Bits coord_range(const MeshShape& shape, int j, Coord lo, Coord hi) {
  Bits out(shape.size());
  const NodeId stride = shape.stride(j);
  const NodeId period = stride * shape.width(j);
  for (NodeId base = 0; base < shape.size(); base += period) {
    out.set_range(base + lo * stride, base + hi * stride);
  }
  return out;
}

}  // namespace

std::vector<FloodOracle::Part> FloodOracle::travel(const MeshShape& shape,
                                                  int j, Dir dir, Coord len) {
  const Coord n = shape.width(j);
  const NodeId s = shape.stride(j);
  std::vector<Part> out;
  if (dir == Dir::Pos) {
    out.push_back({coord_range(shape, j, 0, n - len), len * s});
    if (shape.wraps()) {
      out.push_back({coord_range(shape, j, n - len, n), (len - n) * s});
    }
  } else {
    out.push_back({coord_range(shape, j, len, n), -len * s});
    if (shape.wraps()) {
      out.push_back({coord_range(shape, j, 0, len), (n - len) * s});
    }
  }
  return out;
}

Bits FloodOracle::pull(const Bits& x, const std::vector<Part>& parts) {
  Bits out(x.size());
  const Word* xw = x.words().data();
  for (const Part& part : parts) {
    const Word* mw = part.mask.words().data();
    or_shifted(
        out.word_data(), num_words(x), -part.shift,
        [xw](std::int64_t i) { return xw[i]; },
        [mw](std::int64_t i, Word w) { return w & mw[i]; });
  }
  return out;
}

FloodOracle::FloodOracle(const MeshShape& shape, const FaultSet& faults)
    : shape_(&shape),
      good_(shape.size()),
      levels_(static_cast<std::size_t>(2 * shape.dim())) {
  good_.set_range(0, shape.size());
  for (const NodeId id : faults.node_faults()) good_.reset(id);
  for (int j = 0; j < shape.dim(); ++j) {
    const Coord n = shape.width(j);
    for (const Dir dir : {Dir::Neg, Dir::Pos}) {
      // The longest travel a one-round route makes: the whole line on a
      // mesh; on a torus the shorter arc, ties going positive (the rule of
      // dim_ordered_route).
      const Coord cap = !shape.wraps()     ? n - 1
                        : dir == Dir::Pos ? n / 2
                                          : (n - 1) / 2;
      if (cap == 0) continue;

      // One step: from a good node over a good link into a good node.
      std::vector<Part> step = travel(shape, j, dir, 1);
      Bits unit = pull(good_, step);
      unit &= good_;
      for (const LinkFault& lf : faults.link_faults()) {
        if (lf.dim != j) continue;
        if (lf.dir == dir) unit.reset(shape.index(lf.from));
        if (lf.bidirectional && lf.dir != dir) {
          Point nb;
          shape.neighbor(lf.from, j, lf.dir, &nb);
          unit.reset(shape.index(nb));
        }
      }

      // Levels of length 1, 2, 4, ... while they fit under the cap, then
      // the remainder: their subset sums are exactly 0 .. cap. pow[i]
      // marks the nodes whose next 2^i steps are passable.
      std::vector<Level>& levels =
          levels_[static_cast<std::size_t>(2 * j + (dir == Dir::Pos))];
      auto add_level = [&](const Bits& mask, Level level) {
        for (Part& part : level) part.mask &= mask;
        levels.push_back(std::move(level));
      };
      std::vector<Bits> pow{std::move(unit)};
      Coord covered = 0;
      for (Coord len = 1; covered + len <= cap; len *= 2) {
        if (len > 1) {
          Bits doubled = pull(pow.back(), step);
          doubled &= pow.back();
          pow.push_back(std::move(doubled));
          step = travel(shape, j, dir, len);
        }
        add_level(pow.back(), step);
        covered += len;
      }
      const Coord rest = cap - covered;  // < the last power
      if (rest > 0) {
        Bits mask;
        Coord have = 0;
        for (std::size_t i = 0; i < pow.size(); ++i) {
          const Coord len = Coord{1} << i;
          if ((rest & len) == 0) continue;
          if (have == 0) {
            mask = pow[i];
          } else {
            mask &= pull(pow[i], travel(shape, j, dir, have));
          }
          have += len;
        }
        add_level(mask, travel(shape, j, dir, rest));
      }
    }
  }
}

void FloodOracle::expand(int j, bool forward, Bits* cur) const {
  const std::int64_t nwords = num_words(*cur);
  Bits out = *cur;
  Bits run;
  Bits next;
  for (const Dir dir : {Dir::Neg, Dir::Pos}) {
    const std::vector<Level>& levels =
        levels_[static_cast<std::size_t>(2 * j + (dir == Dir::Pos))];
    if (levels.empty()) continue;
    run = *cur;
    for (const Level& level : levels) {
      next = run;
      const Word* rw = run.words().data();
      for (const Part& part : level) {
        const Word* mw = part.mask.words().data();
        if (forward) {
          // Members on a passable start travel the level's length.
          or_shifted(
              next.word_data(), nwords, part.shift,
              [rw, mw](std::int64_t i) { return rw[i] & mw[i]; },
              [](std::int64_t, Word w) { return w; });
        } else {
          // Passable starts whose travel lands on a member.
          or_shifted(
              next.word_data(), nwords, -part.shift,
              [rw](std::int64_t i) { return rw[i]; },
              [mw](std::int64_t i, Word w) { return w & mw[i]; });
        }
      }
      std::swap(run, next);
    }
    out |= run;
  }
  *cur = std::move(out);
}

Bits FloodOracle::reach1_from(const Point& v, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward");
  floods.add();
  Bits cur(shape_->size());
  const NodeId id = shape_->index(v);
  if (!good_.test(id)) return cur;
  cur.set(id);
  for (int t = 0; t < order.dim(); ++t) {
    expand(order.at(t), /*forward=*/true, &cur);
  }
  return cur;
}

Bits FloodOracle::reach1_from_set(const Bits& sources,
                                  const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward_set");
  floods.add();
  Bits cur = sources;
  cur &= good_;
  for (int t = 0; t < order.dim(); ++t) {
    expand(order.at(t), /*forward=*/true, &cur);
  }
  return cur;
}

Bits FloodOracle::reach1_to(const Point& w, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.backward");
  floods.add();
  Bits cur(shape_->size());
  const NodeId id = shape_->index(w);
  if (!good_.test(id)) return cur;
  cur.set(id);
  for (int t = order.dim() - 1; t >= 0; --t) {
    expand(order.at(t), /*forward=*/false, &cur);
  }
  return cur;
}

Bits FloodOracle::reach_from(const Point& v, const MultiRoundOrder& orders) const {
  if (orders.empty()) {
    Bits cur(shape_->size());
    const NodeId id = shape_->index(v);
    if (good_.test(id)) cur.set(id);
    return cur;
  }
  Bits cur = reach1_from(v, orders.front());
  for (std::size_t r = 1; r < orders.size(); ++r) {
    cur = reach1_from_set(cur, orders[r]);
  }
  return cur;
}

}  // namespace lamb
