#include <vector>

#include "core/lamb.hpp"
#include "core/lamb_internal.hpp"
#include "graph/bipartite_wvc.hpp"
#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace lamb {

double LambResult::value(const LambOptions& opts) const {
  if (opts.node_values == nullptr) return static_cast<double>(lambs.size());
  double total = 0.0;
  for (NodeId id : lambs) {
    total += (*opts.node_values)[static_cast<std::size_t>(id)];
  }
  return total;
}

namespace internal {

LambResult cover_phase(const MeshShape& shape, const ReachComputation& reach,
                       const LambOptions& options,
                       const std::vector<NodeId>& predetermined,
                       const Deadline& deadline) {
  LambResult result;
  const EquivPartition& ses = reach.first_ses();
  const EquivPartition& des = reach.last_des();
  const BitMatrix& rk = reach.rk;
  result.stats.p = ses.size();
  result.stats.q = des.size();
  result.stats.rk_density = rk.density();

  Stopwatch watch;
  obs::Span cover_timer("solver.cover");
  // Relevant SES's: rows of R^(k) with a zero. Relevant DES's: columns
  // with a zero (complement of the all-rows AND).
  std::vector<std::int64_t> relevant_rows;
  for (std::int64_t i = 0; i < rk.rows(); ++i) {
    if (!rk.row_full(i)) relevant_rows.push_back(i);
  }
  const Bits col_all = rk.column_all();
  std::vector<std::int64_t> relevant_cols;
  std::vector<std::int64_t> col_slot(static_cast<std::size_t>(rk.cols()), -1);
  for (std::int64_t j = 0; j < rk.cols(); ++j) {
    if (!col_all.test(j)) {
      col_slot[static_cast<std::size_t>(j)] =
          static_cast<std::int64_t>(relevant_cols.size());
      relevant_cols.push_back(j);
    }
  }
  result.stats.relevant_ses = static_cast<std::int64_t>(relevant_rows.size());
  result.stats.relevant_des = static_cast<std::int64_t>(relevant_cols.size());

  std::vector<double> left_weights;
  left_weights.reserve(relevant_rows.size());
  for (std::int64_t i : relevant_rows) {
    left_weights.push_back(internal::rect_weight(
        shape, ses.sets[static_cast<std::size_t>(i)], options, predetermined));
  }
  std::vector<double> right_weights;
  right_weights.reserve(relevant_cols.size());
  for (std::int64_t j : relevant_cols) {
    right_weights.push_back(internal::rect_weight(
        shape, des.sets[static_cast<std::size_t>(j)], options, predetermined));
  }

  std::vector<BipartiteEdge> edges;
  for (std::size_t li = 0; li < relevant_rows.size(); ++li) {
    const std::int64_t i = relevant_rows[li];
    for (std::int64_t j = 0; j < rk.cols(); ++j) {
      if (!rk.get(i, j)) {
        edges.push_back(BipartiteEdge{static_cast<int>(li),
                                      static_cast<int>(col_slot[static_cast<std::size_t>(j)])});
      }
    }
  }

  deadline.check("cover setup");
  const BipartiteCover cover =
      min_weight_bipartite_cover(left_weights, right_weights, edges);
  result.stats.cover_weight = cover.weight;

  for (int li : cover.left) {
    internal::append_rect(
        shape,
        ses.sets[static_cast<std::size_t>(relevant_rows[static_cast<std::size_t>(li)])],
        &result.lambs);
  }
  for (int rj : cover.right) {
    internal::append_rect(
        shape,
        des.sets[static_cast<std::size_t>(relevant_cols[static_cast<std::size_t>(rj)])],
        &result.lambs);
  }
  internal::finalize_lambs(&result.lambs, predetermined);
  result.stats.seconds_cover = watch.seconds();
  obs::counter("solver.lambs_selected").add(result.size());

  return result;
}

LambResult lamb1_core(const MeshShape& shape, const FaultSet& faults,
                      const LambOptions& options, LambCapture* capture) {
  obs::Span span("solver.lamb1", "solver");
  obs::counter("solver.lamb1.calls").add();
  const internal::Deadline deadline(options.budget_seconds);
  const MultiRoundOrder orders = options.resolved_orders(shape.dim());
  const std::vector<NodeId> predetermined =
      internal::checked_predetermined(faults, options);
  deadline.check("setup");

  ReachComputation reach =
      compute_reachability(shape, faults, orders, options.backend,
                           capture != nullptr ? &capture->rcap : nullptr);
  deadline.check("reachability");

  LambResult result =
      cover_phase(shape, reach, options, predetermined, deadline);
  result.stats.seconds_partition = reach.seconds_partition;
  result.stats.seconds_matrices = reach.seconds_matrices;
  if (capture != nullptr) {
    capture->reach = std::move(reach);
    capture->valid = capture->rcap.valid;
  }
  span.arg("lambs", static_cast<double>(result.size()));
  return result;
}

}  // namespace internal

LambResult lamb1(const MeshShape& shape, const FaultSet& faults,
                 const LambOptions& options) {
  return internal::lamb1_core(shape, faults, options, nullptr);
}

}  // namespace lamb
