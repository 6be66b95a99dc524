#include "reach/flood_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "obs/obs.hpp"

namespace lamb {

namespace {

using Word = std::uint64_t;

// out[i] |= post(i, word i of the set x shifted by `shift` bit positions --
// toward higher ids when positive), where x is nonzero only over `src` and
// its word k is pre(k). Bits shifted past either end are dropped. Writes
// only the words the shifted span reaches and returns them. Positive
// shifts run from high words to low and negative from low to high, so each
// output word depends only on input words not yet written: `out` may be
// the buffer that `pre` reads.
template <typename Pre, typename Post>
WordSpan or_shifted(Word* out, WordSpan src, std::int64_t nwords,
                    NodeId shift, Pre pre, Post post) {
  const NodeId dist = shift >= 0 ? shift : -shift;
  const std::int64_t q = dist >> 6;
  const int b = static_cast<int>(dist & 63);
  const std::int64_t spill = b != 0 ? 1 : 0;
  if (shift >= 0) {
    const WordSpan dst{src.lo + q, std::min(nwords, src.hi + q + spill)};
    if (b == 0) {
      for (std::int64_t i = dst.hi - 1; i >= dst.lo; --i) {
        out[i] |= post(i, pre(i - q));
      }
      return dst;
    }
    // Word i takes the low bits of word i - q and the high bits of the
    // word below it; the span's top and bottom words lack one of the two.
    std::int64_t i = dst.hi - 1;
    if (i >= dst.lo && i - q == src.hi) {
      out[i] |= post(i, pre(src.hi - 1) >> (64 - b));
      --i;
    }
    for (; i > dst.lo; --i) {
      out[i] |= post(i, (pre(i - q) << b) | (pre(i - q - 1) >> (64 - b)));
    }
    if (i == dst.lo) out[i] |= post(i, pre(src.lo) << b);
    return dst;
  }
  const WordSpan dst{std::max<std::int64_t>(0, src.lo - q - spill),
                     src.hi - q};
  if (b == 0) {
    for (std::int64_t i = dst.lo; i < dst.hi; ++i) {
      out[i] |= post(i, pre(i + q));
    }
    return dst;
  }
  std::int64_t i = dst.lo;
  if (i < dst.hi && i + q == src.lo - 1) {
    out[i] |= post(i, pre(src.lo) << (64 - b));
    ++i;
  }
  for (; i < dst.hi - 1; ++i) {
    out[i] |= post(i, (pre(i + q) >> b) | (pre(i + q + 1) << (64 - b)));
  }
  if (i == dst.hi - 1) out[i] |= post(i, pre(src.hi - 1) >> b);
  return dst;
}

// The smallest span holding `a` and the nonempty `b`.
WordSpan hull(WordSpan a, WordSpan b) {
  if (b.lo >= b.hi) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// `span` without its leading and trailing zero words.
WordSpan trim(const Word* w, WordSpan span) {
  while (span.lo < span.hi && w[span.lo] == 0) ++span.lo;
  while (span.hi > span.lo && w[span.hi - 1] == 0) --span.hi;
  return span;
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
        out.word_data(), {0, num_words(x)}, num_words(x), -part.shift,
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

WordSpan FloodOracle::advance(const std::vector<Level>& levels,
                              bool forward, Word* run, WordSpan span,
                              Word* snap) const {
  const std::int64_t nwords = num_words(good_);
  for (const Level& level : levels) {
    // Every part of a level reads the level's input. One part may update
    // `run` in place; the two parts of a torus level read a snapshot,
    // since each would see the other's writes.
    const Word* in = run;
    if (level.size() > 1) {
      std::copy(run + span.lo, run + span.hi, snap + span.lo);
      in = snap;
    }
    WordSpan grown = span;
    for (const Part& part : level) {
      const Word* mw = part.mask.words().data();
      WordSpan wrote;
      if (forward) {
        // Members on a passable start travel the level's length.
        wrote = or_shifted(
            run, span, nwords, part.shift,
            [in, mw](std::int64_t i) { return in[i] & mw[i]; },
            [](std::int64_t, Word w) { return w; });
      } else {
        // Passable starts whose travel lands on a member.
        wrote = or_shifted(
            run, span, nwords, -part.shift,
            [in](std::int64_t i) { return in[i]; },
            [mw](std::int64_t i, Word w) { return w & mw[i]; });
      }
      grown = hull(grown, wrote);
    }
    span = trim(run, grown);
  }
  return span;
}

WordSpan FloodOracle::expand(int j, bool forward, Word* cur, WordSpan span,
                             Word* scratch) const {
  const std::int64_t nwords = num_words(good_);
  const std::vector<Level>& neg = levels_[static_cast<std::size_t>(2 * j)];
  const std::vector<Level>& pos = levels_[static_cast<std::size_t>(2 * j + 1)];
  Word* snap = scratch + nwords;
  if (neg.empty() || pos.empty()) {
    return advance(neg.empty() ? pos : neg, forward, cur, span, snap);
  }
  // Both directions start from the same set: the negative one runs on a
  // copy, the positive one on `cur`, and the copy is ORed back and zeroed.
  Word* run = scratch;
  std::copy(cur + span.lo, cur + span.hi, run + span.lo);
  const WordSpan neg_span = advance(neg, forward, run, span, snap);
  const WordSpan pos_span = advance(pos, forward, cur, span, snap);
  for (std::int64_t i = neg_span.lo; i < neg_span.hi; ++i) {
    cur[i] |= run[i];
    run[i] = 0;
  }
  return hull(pos_span, neg_span);
}

void FloodOracle::flood(const DimOrder& order, bool forward, Bits* cur) const {
  const std::int64_t nwords = num_words(*cur);
  WordSpan span = trim(cur->words().data(), {0, nwords});
  if (span.lo == span.hi) return;
  std::vector<Word> scratch(static_cast<std::size_t>(2 * nwords), 0);
  for (int t = 0; t < order.dim(); ++t) {
    const int j = order.at(forward ? t : order.dim() - 1 - t);
    span = expand(j, forward, cur->word_data(), span, scratch.data());
  }
}

Bits FloodOracle::reach1_from(const Point& v, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward");
  floods.add();
  Bits cur(shape_->size());
  const NodeId id = shape_->index(v);
  if (!good_.test(id)) return cur;
  cur.set(id);
  flood(order, /*forward=*/true, &cur);
  return cur;
}

Bits FloodOracle::reach1_from_set(const Bits& sources,
                                  const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward_set");
  floods.add();
  Bits cur = sources;
  cur &= good_;
  flood(order, /*forward=*/true, &cur);
  return cur;
}

Bits FloodOracle::reach1_to(const Point& w, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.backward");
  floods.add();
  Bits cur(shape_->size());
  const NodeId id = shape_->index(w);
  if (!good_.test(id)) return cur;
  cur.set(id);
  flood(order, /*forward=*/false, &cur);
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
