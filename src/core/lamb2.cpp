#include <vector>

#include "core/lamb.hpp"
#include "core/lamb_internal.hpp"
#include "graph/general_wvc.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace lamb {

LambResult lamb2(const MeshShape& shape, const FaultSet& faults,
                 const LambOptions& options, bool exact) {
  obs::Span span("solver.lamb2", "solver");
  obs::counter("solver.lamb2.calls").add();
  const internal::Deadline deadline(options.budget_seconds);
  const MultiRoundOrder orders = options.resolved_orders(shape.dim());
  const std::vector<NodeId> predetermined =
      internal::checked_predetermined(faults, options);
  deadline.check("setup");

  LambResult result;
  const ReachComputation reach = compute_reachability(shape, faults, orders);
  result.stats.seconds_partition = reach.seconds_partition;
  result.stats.seconds_matrices = reach.seconds_matrices;
  deadline.check("reachability");

  const EquivPartition& ses = reach.first_ses();
  const EquivPartition& des = reach.last_des();
  const BitMatrix& rk = reach.rk;
  result.stats.p = ses.size();
  result.stats.q = des.size();
  result.stats.rk_density = rk.density();

  Stopwatch watch;
  obs::Span cover_timer("solver.cover");
  // Rows / columns of R^(k) that contain a zero. A vertex u_{i,j} can have
  // an incident edge only when row i or column j has a zero (every SES and
  // DES is nonempty, so the "other" endpoint always exists).
  std::vector<char> row_hit(static_cast<std::size_t>(rk.rows()), 0);
  for (std::int64_t i = 0; i < rk.rows(); ++i) {
    row_hit[static_cast<std::size_t>(i)] = rk.row_full(i) ? 0 : 1;
  }
  const Bits col_all = rk.column_all();

  // Vertices: nonempty intersections S_i ∩ D_j with a potential edge.
  struct Vertex {
    std::int64_t i;
    std::int64_t j;
    RectSet cell;
  };
  std::vector<Vertex> vertices;
  for (std::int64_t i = 0; i < rk.rows(); ++i) {
    for (std::int64_t j = 0; j < rk.cols(); ++j) {
      if (!row_hit[static_cast<std::size_t>(i)] && col_all.test(j)) continue;
      RectSet cell = RectSet::intersection(ses.sets[static_cast<std::size_t>(i)],
                                           des.sets[static_cast<std::size_t>(j)]);
      if (cell.empty()) continue;
      vertices.push_back(Vertex{i, j, std::move(cell)});
    }
  }

  WeightedGraph graph(static_cast<int>(vertices.size()));
  for (std::size_t a = 0; a < vertices.size(); ++a) {
    graph.set_weight(static_cast<int>(a),
                     internal::rect_weight(shape, vertices[a].cell, options,
                                           predetermined));
  }
  for (std::size_t a = 0; a < vertices.size(); ++a) {
    for (std::size_t b = a + 1; b < vertices.size(); ++b) {
      // Edge iff members of cell a cannot k-reach members of cell b or
      // vice versa (Figure 16).
      if (!rk.get(vertices[a].i, vertices[b].j) ||
          !rk.get(vertices[b].i, vertices[a].j)) {
        graph.add_edge(static_cast<int>(a), static_cast<int>(b));
      }
    }
  }

  deadline.check("cover setup");
  std::vector<int> cover;
  if (exact) {
    if (auto found = wvc_exact(graph)) {
      cover = std::move(*found);
    } else {
      cover = wvc_local_ratio(graph);  // budget exhausted: degrade gracefully
    }
  } else {
    cover = wvc_local_ratio(graph);
  }
  result.stats.cover_weight = graph.weight_of(cover);

  for (int a : cover) {
    vertices[static_cast<std::size_t>(a)].cell.collect(shape, &result.lambs);
  }
  internal::finalize_lambs(&result.lambs, predetermined);
  result.stats.seconds_cover = watch.seconds();
  obs::counter("solver.lambs_selected").add(result.size());
  span.arg("lambs", static_cast<double>(result.size()));
  return result;
}

}  // namespace lamb
