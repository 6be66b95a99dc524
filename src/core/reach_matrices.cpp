#include "core/reach_matrices.hpp"

#include <cassert>
#include <stdexcept>

#include "graph/bipartite_wvc.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

namespace lamb {

BitMatrix one_round_reach_matrix(const ReachOracle& oracle,
                                 const EquivPartition& ses,
                                 const EquivPartition& des,
                                 const DimOrder& order) {
  BitMatrix r(ses.size(), des.size());
  std::vector<Point> des_reps;
  des_reps.reserve(static_cast<std::size_t>(des.size()));
  for (std::int64_t j = 0; j < des.size(); ++j) des_reps.push_back(des.rep(j));
  // Row bands over SES representatives; each band writes disjoint rows of
  // r, so the result is identical at any thread count.
  par::parallel_for(0, ses.size(), 0, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const Point v = ses.rep(i);
      for (std::int64_t j = 0; j < des.size(); ++j) {
        if (oracle.reach1(v, des_reps[static_cast<std::size_t>(j)], order)) {
          r.set(i, j);
        }
      }
    }
  });
  return r;
}

namespace {

// Distinct orderings -> shared partitions and matrices.
std::vector<DimOrder> distinct_orders(const MultiRoundOrder& orders,
                                      std::vector<int>* round_part) {
  const int k = static_cast<int>(orders.size());
  std::vector<DimOrder> distinct;
  round_part->resize(static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) {
    int found = -1;
    for (std::size_t u = 0; u < distinct.size(); ++u) {
      if (distinct[u] == orders[static_cast<std::size_t>(t)]) {
        found = static_cast<int>(u);
        break;
      }
    }
    if (found < 0) {
      distinct.push_back(orders[static_cast<std::size_t>(t)]);
      found = static_cast<int>(distinct.size()) - 1;
    }
    (*round_part)[static_cast<std::size_t>(t)] = found;
  }
  return distinct;
}

// Old-of-new maps are near monotone, so they decompose into a handful of
// identity-with-offset runs (unmapped entries skipped). Every splice
// copies run by run at word granularity rather than entry by entry.
struct Run {
  std::int64_t dst;  // first new index of the run
  std::int64_t src;  // first old index of the run
  std::int64_t len;
};

std::vector<Run> runs_of(const std::vector<std::int64_t>& old_of_new) {
  std::vector<Run> runs;
  for (std::size_t j = 0; j < old_of_new.size(); ++j) {
    const std::int64_t o = old_of_new[j];
    if (o < 0) continue;
    const std::int64_t jj = static_cast<std::int64_t>(j);
    if (!runs.empty() && runs.back().dst + runs.back().len == jj &&
        runs.back().src + runs.back().len == o) {
      ++runs.back().len;
    } else {
      runs.push_back({jj, o, 1});
    }
  }
  return runs;
}

// The I_t of every chain step t = 1..k-1 of `out`, whose partitions are
// built. I_t depends only on its (previous, next) ordering pair, so a
// repeated pair copies the step that first built it. A delta run passes
// the previous run and the repairs' identity maps per distinct ordering,
// and every step it builds splices the previous run's same step.
void build_intersections(
    ReachComputation* out, const ReachComputation* prev = nullptr,
    const std::vector<std::vector<std::int64_t>>* ses_map = nullptr,
    const std::vector<std::vector<std::int64_t>>* des_map = nullptr) {
  const std::size_t nu = out->distinct.size();
  const std::size_t k = out->round_part.size();
  std::vector<int> first_step(nu * nu, -1);
  for (std::size_t t = 1; t < k; ++t) {
    const auto pu = static_cast<std::size_t>(out->round_part[t - 1]);
    const auto su = static_cast<std::size_t>(out->round_part[t]);
    int& first = first_step[pu * nu + su];
    if (first >= 0) {
      BitMatrix copy = out->inters[static_cast<std::size_t>(first)];
      out->inters.push_back(std::move(copy));
      continue;
    }
    first = static_cast<int>(t) - 1;
    if (prev == nullptr) {
      out->inters.push_back(intersection_matrix(out->des[pu], out->ses[su]));
    } else {
      const IntersectionSplice splice{prev->inters[t - 1], (*des_map)[pu],
                                      (*ses_map)[su]};
      out->inters.push_back(
          intersection_matrix(out->des[pu], out->ses[su], &splice));
    }
  }
}

}  // namespace

BitMatrix intersection_matrix(const EquivPartition& des_prev,
                              const EquivPartition& ses_next,
                              const IntersectionSplice* splice) {
  BitMatrix m(des_prev.size(), ses_next.size());
  // A kept cell is the old RectSet, so the entries between kept cells are
  // the previous I_t's.
  std::vector<Run> kept_cols;
  std::vector<std::int64_t> new_cols;
  if (splice != nullptr) {
    kept_cols = runs_of(splice->ses_old_of_new);
    for (std::int64_t i = 0; i < ses_next.size(); ++i) {
      if (splice->ses_old_of_new[static_cast<std::size_t>(i)] < 0) {
        new_cols.push_back(i);
      }
    }
  }
  for (std::int64_t j = 0; j < des_prev.size(); ++j) {
    const RectSet& d = des_prev.sets[static_cast<std::size_t>(j)];
    auto test = [&](std::int64_t i) {
      if (RectSet::intersects(d, ses_next.sets[static_cast<std::size_t>(i)])) {
        m.set(j, i);
      }
    };
    const std::int64_t old_row =
        splice != nullptr
            ? splice->des_old_of_new[static_cast<std::size_t>(j)]
            : -1;
    if (old_row < 0) {
      for (std::int64_t i = 0; i < ses_next.size(); ++i) test(i);
      continue;
    }
    for (const Run& run : kept_cols) {
      m.copy_row_range(j, run.dst, splice->prev, old_row, run.src, run.len);
    }
    for (const std::int64_t i : new_cols) test(i);
  }
  return m;
}

BitMatrix reach_chain(const std::vector<BitMatrix>& r,
                      const std::vector<BitMatrix>& inters,
                      const std::vector<int>& round_part) {
  const std::size_t k = round_part.size();
  assert(k >= 1 && inters.size() == k - 1);
  auto round = [&](std::size_t t) -> const BitMatrix& {
    return r[static_cast<std::size_t>(round_part[t])];
  };
  if (k == 1) return round(0);
  // T = R_k, then T = I_t T and T = R_t T for t = k-1 down to 1. I_t is
  // sparse, and the rows of I_t T are near full, so R_t's dense rows stop
  // after a few ORs in the saturating kernel. acc and scratch ping-pong,
  // so each product reuses the buffer freed by the one before it.
  BitMatrix acc;
  BitMatrix scratch;
  const BitMatrix* right = &round(k - 1);
  for (std::size_t t = k - 1; t-- > 0;) {
    BitMatrix::multiply_into(inters[t], *right, &scratch);
    std::swap(acc, scratch);
    BitMatrix::multiply_into(round(t), acc, &scratch);
    std::swap(acc, scratch);
    right = &acc;
  }
  return acc;
}

ReachCover min_weight_reach_cover(const BitMatrix& rk, const CoverSide& rows,
                                  const CoverSide& cols,
                                  const std::function<void()>& before_cover) {
  // Relevant rows and columns: those of R^(k) with a zero (for columns,
  // the complement of the all-rows AND).
  std::vector<std::int64_t> relevant_rows, relevant_cols;
  std::vector<double> left_weights, right_weights;
  for (std::int64_t i = 0; i < rk.rows(); ++i) {
    if (rk.row_full(i)) continue;
    relevant_rows.push_back(i);
    left_weights.push_back(rows.weight(i));
  }
  const Bits col_all = rk.column_all();
  std::vector<int> col_slot(static_cast<std::size_t>(rk.cols()), -1);
  for (std::int64_t j = 0; j < rk.cols(); ++j) {
    if (col_all.test(j)) continue;
    col_slot[static_cast<std::size_t>(j)] =
        static_cast<int>(relevant_cols.size());
    relevant_cols.push_back(j);
    right_weights.push_back(cols.weight(j));
  }
  std::vector<BipartiteEdge> edges;
  for (std::size_t li = 0; li < relevant_rows.size(); ++li) {
    for (std::int64_t j = 0; j < rk.cols(); ++j) {
      if (!rk.get(relevant_rows[li], j)) {
        edges.push_back(BipartiteEdge{static_cast<int>(li),
                                      col_slot[static_cast<std::size_t>(j)]});
      }
    }
  }

  if (before_cover) before_cover();
  const BipartiteCover cover =
      min_weight_bipartite_cover(left_weights, right_weights, edges);
  ReachCover out{{},
                 cover.weight,
                 static_cast<std::int64_t>(relevant_rows.size()),
                 static_cast<std::int64_t>(relevant_cols.size())};
  for (const int li : cover.left) {
    rows.append(relevant_rows[static_cast<std::size_t>(li)], &out.lambs);
  }
  for (const int rj : cover.right) {
    cols.append(relevant_cols[static_cast<std::size_t>(rj)], &out.lambs);
  }
  return out;
}

ReachComputation compute_reachability(const MeshShape& shape,
                                      const FaultSet& faults,
                                      const MultiRoundOrder& orders) {
  if (orders.empty()) {
    throw std::invalid_argument("compute_reachability: need at least 1 round");
  }
  ReachComputation out;
  out.distinct = distinct_orders(orders, &out.round_part);
  const std::size_t nu = out.distinct.size();

  Stopwatch watch;
  {
    obs::Span partition_timer("solver.partition");
    out.ses_spans.resize(nu);
    out.des_spans.resize(nu);
    for (std::size_t u = 0; u < nu; ++u) {
      out.ses.push_back(find_ses_partition(shape, faults, out.distinct[u],
                                           &out.ses_spans[u]));
      out.des.push_back(find_des_partition(shape, faults, out.distinct[u],
                                           &out.des_spans[u]));
    }
  }
  out.seconds_partition = watch.seconds();

  watch.reset();
  obs::Span matrices_timer("solver.reach_matrices");
  obs::Span blocks_timer("solver.reach.blocks");
  const ReachOracle oracle(shape, faults);
  for (std::size_t u = 0; u < nu; ++u) {
    out.r.push_back(one_round_reach_matrix(oracle, out.ses[u], out.des[u],
                                           out.distinct[u]));
  }
  blocks_timer.stop();

  obs::Span chain_timer("solver.reach.chain");
  build_intersections(&out);
  out.rk = reach_chain(out.r, out.inters, out.round_part);
  out.seconds_matrices = watch.seconds();
  return out;
}

bool compute_reachability_incremental(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<Point>& delta_nodes,
    const std::vector<LinkFault>& delta_links, const ReachComputation& prev,
    ReachComputation* out, ReachDelta* delta) {
  if (orders.empty()) return false;
  // The route masks below assume a route moves monotonically from its
  // source to its destination in every dimension; torus routes may wrap,
  // so the incremental path only handles plain meshes.
  if (shape.wraps()) return false;

  ReachComputation res;
  res.distinct = distinct_orders(orders, &res.round_part);
  if (res.distinct != prev.distinct || res.round_part != prev.round_part) {
    return false;
  }
  const std::vector<DimOrder>& distinct = res.distinct;
  const std::size_t nu = distinct.size();
  assert(prev.r.size() == nu && prev.ses_spans.size() == nu &&
         prev.des_spans.size() == nu);

  // Layer 1: local partition repair. Bails (and we fall back to the full
  // solve) when the new damage merges previously independent regions.
  // `ses_map` / `des_map` are the repairs' cell-identity maps: the old
  // index of every new cell the repair kept verbatim, else -1.
  Stopwatch watch;
  std::vector<std::vector<std::int64_t>> ses_map(nu);
  std::vector<std::vector<std::int64_t>> des_map(nu);
  {
    obs::Span partition_timer("solver.partition");
    for (std::size_t u = 0; u < nu; ++u) {
      auto sr = repair_partition(shape, faults, delta_nodes, delta_links,
                                 distinct[u], /*des=*/false, prev.ses[u],
                                 prev.ses_spans[u]);
      if (!sr) return false;
      auto dr = repair_partition(shape, faults, delta_nodes, delta_links,
                                 distinct[u], /*des=*/true, prev.des[u],
                                 prev.des_spans[u]);
      if (!dr) return false;
      delta->partition_cells_reused += sr->cells_reused + dr->cells_reused;
      delta->partition_cells_recomputed +=
          sr->cells_recomputed + dr->cells_recomputed;
      res.ses.push_back(std::move(sr->partition));
      res.des.push_back(std::move(dr->partition));
      res.ses_spans.push_back(std::move(sr->spans));
      res.des_spans.push_back(std::move(dr->spans));
      ses_map[u] = std::move(sr->old_of_new);
      des_map[u] = std::move(dr->old_of_new);
    }
  }
  res.seconds_partition = watch.seconds();

  watch.reset();
  obs::Span matrices_timer("solver.reach_matrices");
  obs::Span maps_timer("solver.reach.maps");
  // Parent maps: the old cell containing a new cell's representative. A
  // cell the repair kept verbatim is its own parent. R entries depend only
  // on the representatives and the fault set, never on cell extents, and
  // by the old partition's uniformity reach under the OLD faults between
  // any members of two old cells equals reach between their
  // representatives; so every new row and column is its parent's under
  // the old faults, and the delta masks below apply the new faults
  // exactly. Every new cell has a parent: its representative is good
  // under the new faults, hence under the old ones, hence in an old cell.
  // A cell without one means that invariant broke, and the caller's full
  // computation is the safe answer. Returns how many cells have a parent
  // whose representative differs (the columns counted as recomputed), or
  // -1 on a cell without a parent.
  auto parents = [](const EquivPartition& old_part,
                    const EquivPartition& new_part,
                    std::vector<std::int64_t>* map) -> std::int64_t {
    std::int64_t moved = 0;
    for (std::size_t i = 0; i < map->size(); ++i) {
      if ((*map)[i] >= 0) continue;
      const Point rep = new_part.rep(static_cast<std::int64_t>(i));
      (*map)[i] = old_part.find(rep);
      if ((*map)[i] < 0) return -1;
      if (old_part.rep((*map)[i]) != rep) ++moved;
    }
    return moved;
  };
  std::vector<std::vector<std::int64_t>> pses_map = ses_map;
  std::vector<std::vector<std::int64_t>> pdes_map = des_map;
  std::vector<std::vector<Run>> pdes_runs(nu);  // for the R_u copies
  std::vector<std::int64_t> moved_cols(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    moved_cols[u] = parents(prev.des[u], res.des[u], &pdes_map[u]);
    if (parents(prev.ses[u], res.ses[u], &pses_map[u]) < 0 ||
        moved_cols[u] < 0) {
      return false;
    }
    pdes_runs[u] = runs_of(pdes_map[u]);
  }
  maps_timer.stop();

  // Delta endpoints for the route masks: one per new node fault, then two
  // per new link fault (`from`, then its neighbour along the link).
  std::vector<Point> ends;
  ends.reserve(delta_nodes.size() + 2 * delta_links.size());
  for (const Point& p : delta_nodes) ends.push_back(p);
  for (const LinkFault& lf : delta_links) {
    Point b = lf.from;
    b[lf.dim] += static_cast<Coord>(dir_sign(lf.dir));
    ends.push_back(lf.from);
    ends.push_back(b);
  }
  const std::size_t num_node_ends = delta_nodes.size();

  // Layer 2: per-ordering R_u with entry-level reuse.
  obs::Span blocks_timer("solver.reach.blocks");
  const int d = shape.dim();
  res.r.resize(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    const EquivPartition& ses = res.ses[u];
    const EquivPartition& des = res.des[u];
    const BitMatrix& old_r = prev.r[u];
    const std::vector<std::int64_t>& pses = pses_map[u];
    const std::int64_t p = ses.size();
    const std::int64_t q = des.size();

    // Per delta endpoint e and dimension dd: DES columns whose
    // representative has coord dd >= the endpoint's (ge), <= it (le), or
    // equal (eq). These turn "endpoint on the dimension-ordered route
    // from v to rep_j" into a few word-wide ANDs per row below; only the
    // coordinates the delta actually touches get a mask, not full
    // per-coordinate tables.
    const std::int64_t ne = static_cast<std::int64_t>(ends.size());
    std::vector<Bits> ge_ep(static_cast<std::size_t>(ne * d), Bits(q));
    std::vector<Bits> le_ep(static_cast<std::size_t>(ne * d), Bits(q));
    std::vector<Bits> eq_ep(static_cast<std::size_t>(ne * d), Bits(q));
    for (std::int64_t j = 0; j < q; ++j) {
      const Point w = des.rep(j);
      for (std::int64_t e = 0; e < ne; ++e) {
        const Point& x = ends[static_cast<std::size_t>(e)];
        for (int dd = 0; dd < d; ++dd) {
          const std::size_t at = static_cast<std::size_t>(e * d + dd);
          if (w[dd] >= x[dd]) ge_ep[at].set(j);
          if (w[dd] <= x[dd]) le_ep[at].set(j);
          if (w[dd] == x[dd]) eq_ep[at].set(j);
        }
      }
    }
    Bits all_cols(q);
    for (std::int64_t j = 0; j < q; ++j) all_cols.set(j);

    res.r[u] = BitMatrix(p, q);
    std::vector<std::int64_t> recomputed(static_cast<std::size_t>(p), 0);
    BitMatrix& ru = res.r[u];
    // Row bands, each writing disjoint rows and its own counters:
    // deterministic at any thread count.
    par::parallel_for(0, p, 0, [&](std::int64_t i0, std::int64_t i1) {
      // Scratch masks live outside the row loop so the copy-assignments
      // below reuse their buffers instead of reallocating per row.
      Bits dirty(q);
      Bits m(q);
      Bits m2(q);
      Bits pe(q);
      Bits term(q);
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::int64_t oi = pses[static_cast<std::size_t>(i)];
        const Point v = ses.rep(i);
        // Columns j whose dimension-ordered route from v to rep_j passes
        // through endpoint x. The route corrects dimensions in `order`;
        // x sits on the segment at position t iff the already-corrected
        // coordinates match x on the destination side (eq masks), the
        // not-yet-corrected ones match x on the source side (scalar
        // compares against v), and x's coordinate in the segment
        // dimension lies between v's and the destination's.
        auto route_mask = [&](std::int64_t e, Bits* out) {
          const Point& x = ends[static_cast<std::size_t>(e)];
          out->clear();
          int t_min = 0;
          for (int t = 0; t < d; ++t) {
            if (v[distinct[u].at(t)] != x[distinct[u].at(t)]) t_min = t;
          }
          pe = all_cols;
          for (int t = 0; t < d; ++t) {
            const int dd = distinct[u].at(t);
            if (t >= t_min) {
              term = pe;
              if (x[dd] > v[dd]) {
                term &= ge_ep[static_cast<std::size_t>(e * d + dd)];
              } else if (x[dd] < v[dd]) {
                term &= le_ep[static_cast<std::size_t>(e * d + dd)];
              }
              *out |= term;
            }
            if (t + 1 < d) {
              pe &= eq_ep[static_cast<std::size_t>(e * d + dd)];
              if (!pe.any()) break;
            }
          }
        };
        // The entries the delta flips are exactly the copied 1s whose
        // route meets it: the route's point set is fault-independent, and
        // a copied 0 stays 0 by monotonicity (the incremental path only
        // adds faults). A route through both endpoints of a link runs
        // along it, since every other coordinate is corrected once and
        // cannot change between the two visits; it crosses in the
        // direction that leads away from v's side. So a directed link
        // fault only masks rows whose v lies on its `from` side.
        dirty.clear();
        for (std::size_t e = 0; e < num_node_ends; ++e) {
          route_mask(static_cast<std::int64_t>(e), &m);
          dirty |= m;
        }
        for (std::size_t l = 0; l < delta_links.size(); ++l) {
          const LinkFault& lf = delta_links[l];
          const Coord a = lf.from[lf.dim];
          if (!lf.bidirectional &&
              (lf.dir == Dir::Pos ? v[lf.dim] > a : v[lf.dim] < a)) {
            continue;
          }
          const std::size_t e = num_node_ends + 2 * l;
          route_mask(static_cast<std::int64_t>(e), &m);
          route_mask(static_cast<std::int64_t>(e + 1), &m2);
          m &= m2;
          dirty |= m;
        }
        // The row and every column come from their parents' old entries,
        // copied run by run at word granularity.
        for (const Run& run : pdes_runs[u]) {
          ru.copy_row_range(i, run.dst, old_r, oi, run.src, run.len);
        }
        recomputed[static_cast<std::size_t>(i)] =
            moved_cols[u] + ru.row_clear_masked(i, dirty);
      }
    });
    for (std::int64_t i = 0; i < p; ++i) {
      delta->blocks_recomputed += recomputed[static_cast<std::size_t>(i)];
      delta->blocks_reused += q - recomputed[static_cast<std::size_t>(i)];
    }
  }
  blocks_timer.stop();

  // Layer 2b: intersection matrices spliced from the previous run, then
  // the chain recomputed in full by the shared right-to-left helper.
  obs::Span chain_timer("solver.reach.chain");
  build_intersections(&res, &prev, &ses_map, &des_map);
  res.rk = reach_chain(res.r, res.inters, res.round_part);

  res.seconds_matrices = watch.seconds();
  *out = std::move(res);
  return true;
}

}  // namespace lamb
