#include "core/partition.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lamb {

std::int64_t EquivPartition::find(const Point& p) const {
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (sets[i].contains(p)) return static_cast<std::int64_t>(i);
  }
  return -1;
}

namespace {

// What a repair run splices at the outermost peel level: the previous
// partition and its spans, the previous span of every outer hyperplane
// coordinate (-1 where none was blocked), and the hyperplanes the delta
// touched.
struct Splice {
  const EquivPartition& prev;
  const PartitionSpans& prev_spans;
  std::vector<std::int64_t> prev_span_at;
  std::vector<char> dirty;

  // A blocked hyperplane the delta left alone receives the same fault set
  // as the previous run (the output of recurse depends only on the set,
  // not the list order), so its previous span is valid verbatim.
  bool kept(Coord c) const {
    const auto at = static_cast<std::size_t>(c);
    return !dirty[at] && prev_span_at[at] >= 0;
  }
  std::pair<std::int64_t, std::int64_t> prev_span(Coord c) const {
    const std::int64_t s = prev_span_at[static_cast<std::size_t>(c)];
    return s < 0 ? std::pair<std::int64_t, std::int64_t>{0, 0}
                 : prev_spans.spans[static_cast<std::size_t>(s)];
  }
};

// Recursive worker shared by the SES and DES variants and the repair.
// `peel` lists the dimensions from outermost (peeled first; the
// last-routed dimension for an SES partition) to innermost. `box` carries
// the constants fixed by enclosing levels. Fault lists are pre-filtered
// to the current submesh.
class PartitionBuilder {
 public:
  PartitionBuilder(const MeshShape& shape, std::vector<int> peel)
      : shape_(shape), peel_(std::move(peel)) {}

  // One Find-Partition run; with `splice`, the outermost level copies the
  // previous span of every kept hyperplane instead of recursing into it.
  EquivPartition run(const FaultSet& faults, PartitionSpans* spans,
                     const Splice* splice = nullptr) {
    std::vector<Point> nodes;
    nodes.reserve(faults.node_faults().size());
    for (NodeId id : faults.node_faults()) nodes.push_back(shape_.point(id));
    EquivPartition out;
    RectSet box(shape_);
    recurse(0, box, nodes, faults.link_faults(), &out, spans, splice);
    return out;
  }

  // Incremental Find-Partition: the run above, splicing every outer
  // hyperplane the delta did not touch from `prev`. The level-0 intervals
  // are always recomputed (O(width + f)).
  std::optional<PartitionRepair> repair(
      const FaultSet& faults, const std::vector<Point>& delta_nodes,
      const std::vector<LinkFault>& delta_links, const EquivPartition& prev,
      const PartitionSpans& prev_spans) {
    if (peel_.size() == 1) return std::nullopt;  // no subtrees to splice
    const int j = peel_[0];
    const auto width = static_cast<std::size_t>(shape_.width(j));
    Splice splice{prev, prev_spans, std::vector<std::int64_t>(width, -1),
                  std::vector<char>(width, 0)};
    for (std::size_t s = 0; s < prev_spans.coords.size(); ++s) {
      splice.prev_span_at[static_cast<std::size_t>(prev_spans.coords[s])] =
          static_cast<std::int64_t>(s);
    }
    for (const Point& p : delta_nodes) {
      splice.dirty[static_cast<std::size_t>(p[j])] = 1;
    }
    for (const LinkFault& lf : delta_links) {
      if (lf.dim != j) splice.dirty[static_cast<std::size_t>(lf.from[j])] = 1;
    }

    // Merged-regions bail: when most hyperplanes are touched, splicing
    // would redo most of the work with extra bookkeeping on top. `faults`
    // is the previous set plus the delta, so the blocked hyperplanes are
    // the previous ones plus the dirty ones.
    std::int64_t blocked_count = 0;
    std::int64_t dirty_count = 0;
    for (std::size_t c = 0; c < splice.dirty.size(); ++c) {
      dirty_count += splice.dirty[c];
      blocked_count += splice.dirty[c] || splice.prev_span_at[c] >= 0;
    }
    if (2 * dirty_count > blocked_count) return std::nullopt;

    PartitionRepair out;
    out.partition = run(faults, &out.spans, &splice);
    // Spliced spans map to their old cells one for one; recomputed spans
    // and the level-0 intervals are matched against the previous run's
    // cells at the same place.
    for (std::size_t s = 0; s < out.spans.coords.size(); ++s) {
      const Coord c = out.spans.coords[s];
      const auto [nb, ne] = out.spans.spans[s];
      const auto [ob, oe] = splice.prev_span(c);
      if (splice.kept(c)) {
        for (std::int64_t t = 0; t < ne - nb; ++t) {
          out.old_of_new.push_back(ob + t);
        }
        out.cells_reused += ne - nb;
      } else {
        match_span(prev.sets, ob, oe, out.partition.sets, nb, ne,
                   &out.old_of_new);
        out.cells_recomputed += ne - nb;
      }
    }
    match_span(prev.sets, prev_spans.tail_begin, prev.size(),
               out.partition.sets, out.spans.tail_begin, out.partition.size(),
               &out.old_of_new);
    out.cells_recomputed += out.partition.size() - out.spans.tail_begin;
    return out;
  }

 private:
  // Coordinate of the lower endpoint of a link fault in its own dimension
  // (the cut lies between `low_end` and `low_end + 1`).
  static Coord low_end(const LinkFault& lf) {
    return lf.dir == Dir::Pos ? lf.from[lf.dim] : lf.from[lf.dim] - 1;
  }

  // Greedy order-preserving equality match: for each new set in [nb, ne),
  // find the next equal old set in [ob, oe) at or after the cursor; a new
  // or changed set gets -1. Appends one entry per new set to old_of_new.
  static void match_span(const std::vector<RectSet>& old_sets, std::int64_t ob,
                         std::int64_t oe, const std::vector<RectSet>& new_sets,
                         std::int64_t nb, std::int64_t ne,
                         std::vector<std::int64_t>* old_of_new) {
    std::int64_t cursor = ob;
    for (std::int64_t t = nb; t < ne; ++t) {
      std::int64_t found = -1;
      for (std::int64_t s = cursor; s < oe; ++s) {
        if (old_sets[static_cast<std::size_t>(s)] ==
            new_sets[static_cast<std::size_t>(t)]) {
          found = s;
          break;
        }
      }
      if (found >= 0) cursor = found + 1;
      old_of_new->push_back(found);
    }
  }

  void recurse(std::size_t level, RectSet& box, const std::vector<Point>& nodes,
               const std::vector<LinkFault>& links, EquivPartition* out,
               PartitionSpans* spans, const Splice* splice) {
    const int j = peel_[level];
    const Coord width = shape_.width(j);
    const bool innermost = level + 1 == peel_.size();

    // Positions blocked at this level: node faults always; link faults
    // along deeper (not yet peeled) dimensions also (they go to H and are
    // pushed into the recursion). At the innermost level there are no
    // deeper dimensions, so only dimension-j link faults remain and they
    // act as cuts.
    std::vector<char> blocked(static_cast<std::size_t>(width), 0);
    std::vector<char> cut(static_cast<std::size_t>(width), 0);
    for (const Point& p : nodes) blocked[static_cast<std::size_t>(p[j])] = 1;
    for (const LinkFault& lf : links) {
      if (lf.dim == j) {
        cut[static_cast<std::size_t>(low_end(lf))] = 1;
      } else {
        blocked[static_cast<std::size_t>(lf.from[j])] = 1;
      }
    }

    if (!innermost) {
      // Step 2(b): recurse into every blocked hyperplane, or copy a kept
      // one's previous output.
      for (Coord c = 0; c < width; ++c) {
        if (!blocked[static_cast<std::size_t>(c)]) continue;
        const std::int64_t begin = out->size();
        if (splice != nullptr && splice->kept(c)) {
          const auto [ob, oe] = splice->prev_span(c);
          const auto& prev = splice->prev.sets;
          out->sets.insert(out->sets.end(), prev.begin() + ob,
                           prev.begin() + oe);
        } else {
          std::vector<Point> sub_nodes;
          for (const Point& p : nodes) {
            if (p[j] == c) sub_nodes.push_back(p);
          }
          std::vector<LinkFault> sub_links;
          for (const LinkFault& lf : links) {
            if (lf.dim != j && lf.from[j] == c) sub_links.push_back(lf);
          }
          box.clamp(j, c, c);
          recurse(level + 1, box, sub_nodes, sub_links, out, nullptr, nullptr);
          box.clamp(j, 0, width - 1);
        }
        if (spans != nullptr) {
          spans->coords.push_back(c);
          spans->spans.emplace_back(begin, out->size());
        }
      }
    }

    if (spans != nullptr) spans->tail_begin = out->size();

    // Steps 1 / 2(c)+2(d): maximal fault-free intervals over the unblocked
    // positions, additionally split at dimension-j link-fault cuts.
    Coord start = -1;
    for (Coord c = 0; c <= width; ++c) {
      const bool usable =
          c < width && !blocked[static_cast<std::size_t>(c)];
      if (usable && start < 0) start = c;
      const bool interval_ends =
          start >= 0 &&
          (!usable || (c < width && cut[static_cast<std::size_t>(c)]));
      if (interval_ends) {
        // Ending on a cut keeps position c in this interval; ending on a
        // blocked position (or the c == width sentinel) does not.
        const Coord end = usable ? c : c - 1;
        RectSet set = box;
        set.clamp(j, start, end);
        out->sets.push_back(set);
        start = -1;
      }
    }
    // The trailing interval is flushed by the c == width sentinel above.
  }

  const MeshShape& shape_;
  std::vector<int> peel_;
};

std::vector<int> peel_for_ses(const DimOrder& order) {
  std::vector<int> peel(static_cast<std::size_t>(order.dim()));
  for (int t = 0; t < order.dim(); ++t) {
    peel[static_cast<std::size_t>(t)] = order.at(order.dim() - 1 - t);
  }
  return peel;
}

std::vector<int> peel_for_des(const DimOrder& order) {
  std::vector<int> peel(static_cast<std::size_t>(order.dim()));
  for (int t = 0; t < order.dim(); ++t) {
    peel[static_cast<std::size_t>(t)] = order.at(t);
  }
  return peel;
}

void require_mesh(const MeshShape& shape) {
  if (shape.wraps()) {
    throw std::invalid_argument(
        "rectangular SES/DES partitions require a (non-wrapping) mesh; use "
        "the generic solver for tori");
  }
}

}  // namespace

EquivPartition find_ses_partition(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const DimOrder& order,
                                  PartitionSpans* spans) {
  require_mesh(shape);
  return PartitionBuilder(shape, peel_for_ses(order)).run(faults, spans);
}

EquivPartition find_des_partition(const MeshShape& shape,
                                  const FaultSet& faults,
                                  const DimOrder& order,
                                  PartitionSpans* spans) {
  require_mesh(shape);
  return PartitionBuilder(shape, peel_for_des(order)).run(faults, spans);
}

std::optional<PartitionRepair> repair_partition(
    const MeshShape& shape, const FaultSet& faults,
    const std::vector<Point>& delta_nodes,
    const std::vector<LinkFault>& delta_links, const DimOrder& order,
    bool des, const EquivPartition& prev, const PartitionSpans& prev_spans) {
  require_mesh(shape);
  return PartitionBuilder(shape,
                          des ? peel_for_des(order) : peel_for_ses(order))
      .repair(faults, delta_nodes, delta_links, prev, prev_spans);
}

std::int64_t theorem64_bound(const MeshShape& shape, std::int64_t f,
                             const DimOrder& order) {
  const int d = shape.dim();
  std::int64_t total = f + 1;
  // Widths listed in routing order: m_i = width of the i-th routed dim.
  // Term j (2 <= j <= d): min(2f, m_d m_{d-1} ... m_{j+1} (m_j - 1)).
  for (int j = 2; j <= d; ++j) {
    std::int64_t prod = shape.width(order.at(j - 1)) - 1;
    for (int i = j + 1; i <= d; ++i) {
      prod *= shape.width(order.at(i - 1));
      if (prod >= 2 * f) break;  // saturated; min picks 2f anyway
    }
    total += std::min<std::int64_t>(2 * f, prod);
  }
  return total;
}

std::int64_t coarse_partition_bound(int d, std::int64_t f) {
  return (2 * d - 1) * f + 1;
}

}  // namespace lamb
