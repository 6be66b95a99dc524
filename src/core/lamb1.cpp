#include <vector>

#include "core/lamb.hpp"
#include "core/lamb_internal.hpp"
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

std::vector<NodeId> survivor_nodes(const FaultSet& faults,
                                   const std::vector<NodeId>& lambs,
                                   std::vector<std::uint8_t>* mask) {
  const NodeId n = faults.shape().size();
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t>& member = mask != nullptr ? *mask : local;
  member.assign(static_cast<std::size_t>(n), 1);
  for (NodeId id : lambs) member[static_cast<std::size_t>(id)] = 0;
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    std::uint8_t& in = member[static_cast<std::size_t>(id)];
    in = in != 0 && faults.node_good(id) ? 1 : 0;
    if (in != 0) out.push_back(id);
  }
  return out;
}

namespace internal {

LambResult cover_phase(const MeshShape& shape, const ReachComputation& reach,
                       const LambOptions& options,
                       const std::vector<NodeId>& predetermined,
                       const Deadline& deadline) {
  LambResult result;
  const EquivPartition& ses = reach.first_ses();
  const EquivPartition& des = reach.last_des();
  result.stats.p = ses.size();
  result.stats.q = des.size();
  result.stats.rk_density = reach.rk.density();

  Stopwatch watch;
  obs::Span cover_timer("solver.cover");
  const auto side = [&](const EquivPartition& part) {
    return CoverSide{
        [&](std::int64_t i) {
          return internal::rect_weight(
              shape, part.sets[static_cast<std::size_t>(i)], options,
              predetermined);
        },
        [&](std::int64_t i, std::vector<NodeId>* out) {
          part.sets[static_cast<std::size_t>(i)].collect(shape, out);
        }};
  };
  ReachCover cover = min_weight_reach_cover(
      reach.rk, side(ses), side(des), [&] { deadline.check("cover setup"); });
  result.stats.relevant_ses = cover.relevant_rows;
  result.stats.relevant_des = cover.relevant_cols;
  result.stats.cover_weight = cover.weight;
  result.lambs = std::move(cover.lambs);
  internal::finalize_lambs(&result.lambs, predetermined);
  result.stats.seconds_cover = watch.seconds();
  obs::counter("solver.lambs_selected").add(result.size());

  return result;
}

LambResult lamb1_core(const MeshShape& shape, const FaultSet& faults,
                      const LambOptions& options, ReachComputation* reach_out) {
  obs::Span span("solver.lamb1", "solver");
  obs::counter("solver.lamb1.calls").add();
  const internal::Deadline deadline(options.budget_seconds);
  const MultiRoundOrder orders = options.resolved_orders(shape.dim());
  const std::vector<NodeId> predetermined =
      internal::checked_predetermined(faults, options);
  deadline.check("setup");

  ReachComputation reach = compute_reachability(shape, faults, orders);
  deadline.check("reachability");

  LambResult result =
      cover_phase(shape, reach, options, predetermined, deadline);
  result.stats.seconds_partition = reach.seconds_partition;
  result.stats.seconds_matrices = reach.seconds_matrices;
  if (reach_out != nullptr) *reach_out = std::move(reach);
  span.arg("lambs", static_cast<double>(result.size()));
  return result;
}

}  // namespace internal

LambResult lamb1(const MeshShape& shape, const FaultSet& faults,
                 const LambOptions& options) {
  return internal::lamb1_core(shape, faults, options, nullptr);
}

}  // namespace lamb
