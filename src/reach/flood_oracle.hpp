// Set-valued ("spanning tree") reachability, the approach the paper
// mentions in Section 4 and footnote 7, computed with the word-parallel
// Boolean operations of Section 6.2 (Lemma 5.1, Fig. 12). Used for:
//   * verification of lamb sets: core/verifier runs one k-round
//     reach_from per survivor and reads it against the survivor mask,
//   * test references for SES/DES partitions and the Sec. 6.2 chain,
//   * choosing intermediate nodes for k-round routes (wormhole RouteCache),
//   * the generic-topology solver.
//
// Cost. The constructor builds, for every (dimension j, direction), a
// passability mask (bit v set when one step from v crosses a good link
// into a good node) and its doubling levels, O(d * log n * N/64 + |F|)
// word operations in all. A one-round flood then makes, per dimension and
// direction, ceil(log2(n_j)) AND/shift/OR passes, each over only the word
// span its frontier can reach: the words between the frontier's lowest and
// highest nonzero word, widened by the pass's shift. A single source
// starts on one word, so the first dimensions of its flood touch a few
// words; a dense frontier, such as a middle round of a k-round flood,
// pays the full N/64 words per pass.
//
// The masks are a snapshot of the fault set at construction; build a new
// oracle after the FaultSet changes. The oracle is immutable after
// construction, so const calls may share one oracle across threads.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "support/bitset.hpp"

namespace lamb {

// The words [lo, hi) of a set outside which every word is zero.
struct WordSpan {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

class FloodOracle {
 public:
  FloodOracle(const MeshShape& shape, const FaultSet& faults);

  const MeshShape& shape() const { return *shape_; }

  // { w : w is (F, pi)-reachable from v }.
  Bits reach1_from(const Point& v, const DimOrder& order) const;
  // Union of reach1_from over all (good) members of `sources`, at the cost
  // of a single-source flood: each middle round of reach_from.
  Bits reach1_from_set(const Bits& sources, const DimOrder& order) const;
  // { u : u can (F, pi)-reach w }.
  Bits reach1_to(const Point& w, const DimOrder& order) const;
  // { w : w is (k, F, pi_vec)-reachable from v } (Definition 2.5.2). Per
  // SES representative, this is footnote 7's "spanning tree" R^(k): the
  // reference the Section 6.2 chain is tested and benchmarked against.
  Bits reach_from(const Point& v, const MultiRoundOrder& orders) const;

 private:
  // One part of a travel along a line: every node v with bit v of `mask`
  // set lands on node v + shift. In a level, the mask also holds only the
  // nodes whose whole travel is passable.
  struct Part {
    Bits mask;
    NodeId shift = 0;
  };
  // One Kogge-Stone level: each frontier member may travel the level's
  // length further. Levels of lengths 1, 2, 4, ... and a remainder compose
  // every travel up to the longest.
  using Level = std::vector<Part>;

  // A `len`-step travel along dimension j in direction dir, as parts
  // whose masks are the nodes each part moves: those whose travel stays
  // inside the line and, on a torus, those whose travel wraps.
  static std::vector<Part> travel(const MeshShape& shape, int j, Dir dir,
                                  Coord len);
  // Bit v of the result is bit (v moved by `parts`) of x; clear when the
  // move leaves a mesh.
  static Bits pull(const Bits& x, const std::vector<Part>& parts);

  // Floods the set `cur` through the dimensions of `order`: forward (every
  // node a member reaches) in order, backward (every node that reaches a
  // member) in reverse order.
  void flood(const DimOrder& order, bool forward, Bits* cur) const;
  // Replaces the set `cur`, nonzero only over `span`, with its expansion by
  // travel along dimension j, and returns the new span. `scratch` holds
  // 2 * N/64 words: a run buffer, zero on entry and on return, then room
  // for a snapshot.
  WordSpan expand(int j, bool forward, std::uint64_t* cur, WordSpan span,
                  std::uint64_t* scratch) const;
  // Runs the levels of one direction on `run` in place and returns the
  // new span; `snap` is room for a snapshot of a multi-part level's input.
  WordSpan advance(const std::vector<Level>& levels, bool forward,
                   std::uint64_t* run, WordSpan span,
                   std::uint64_t* snap) const;

  const MeshShape* shape_;
  Bits good_;
  // levels_[2 * j + (dir == Dir::Pos)]: the levels of dim-j travel in
  // direction dir, whose lengths sum to the longest travel allowed.
  std::vector<std::vector<Level>> levels_;
};

}  // namespace lamb
