// The incremental re-solve path (see core/incremental.hpp for the
// contract).
#include "core/incremental.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "core/lamb_internal.hpp"
#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace lamb {

const char* incremental_fallback_name(IncrementalFallback reason) {
  switch (reason) {
    case IncrementalFallback::kNone: return "none";
    case IncrementalFallback::kNoContext: return "no_context";
    case IncrementalFallback::kNotCertified: return "not_certified";
    case IncrementalFallback::kShapeMismatch: return "shape_mismatch";
    case IncrementalFallback::kNotSuperset: return "not_superset";
    case IncrementalFallback::kReachBailed: return "reach_bailed";
    case IncrementalFallback::kBudgetExceeded: return "budget_exceeded";
  }
  return "?";
}

SolveOutcome solve_lambs_incremental(
    const std::shared_ptr<const FaultSnapshot>& snapshot,
    const SolveOutcome& prev, const LambOptions& options, int max_rounds,
    IncrementalStats* stats) {
  obs::Span span("solver.solve_incremental", "solver");
  const MeshShape& shape = *snapshot->shape;
  const FaultSet& faults = snapshot->faults;
  IncrementalStats local;
  IncrementalStats& st = stats != nullptr ? *stats : local;
  st = IncrementalStats{};

  auto fall_back = [&](IncrementalFallback reason) {
    st.used = false;
    st.fallback = reason;
    obs::counter("solver.incremental.fallback").add();
    span.arg("fallback", static_cast<double>(reason));
    return solve_lambs(snapshot, options, max_rounds);
  };

  if (prev.context == nullptr) {
    return fall_back(IncrementalFallback::kNoContext);
  }
  if (!prev.certified()) return fall_back(IncrementalFallback::kNotCertified);
  const SolveContext& ctx = *prev.context;
  if (!(*ctx.snapshot->shape == shape)) {
    return fall_back(IncrementalFallback::kShapeMismatch);
  }
  const MultiRoundOrder orders = options.resolved_orders(shape.dim());
  // An escalated previous outcome stored its escalated orders; those
  // differ from the caller's base orders, so escalation lands here too.
  if (orders != ctx.orders) {
    return fall_back(IncrementalFallback::kShapeMismatch);
  }

  // The delta: faults present now but not in the context's snapshot. The
  // snapshot must be a subset or the reuse arguments do not hold.
  const std::optional<FaultDelta> fdelta =
      fault_delta(ctx.snapshot->faults, faults);
  if (!fdelta) return fall_back(IncrementalFallback::kNotSuperset);
  std::vector<Point> delta_nodes;
  delta_nodes.reserve(fdelta->nodes.size());
  for (const NodeId id : fdelta->nodes) delta_nodes.push_back(shape.point(id));
  const std::vector<LinkFault>& delta_links = fdelta->links;
  st.delta_nodes = static_cast<std::int64_t>(delta_nodes.size());
  st.delta_links = static_cast<std::int64_t>(delta_links.size());

  const std::vector<NodeId> predetermined =
      internal::checked_predetermined(faults, options);

  Stopwatch watch;
  const internal::Deadline deadline(options.budget_seconds);
  LambOptions attempt = options;
  attempt.orders = orders;
  SolveOutcome outcome;
  ReachComputation reach;
  ReachDelta rdelta;
  try {
    deadline.check("setup");
    if (!compute_reachability_incremental(shape, faults, orders, delta_nodes,
                                          delta_links, ctx.reach, &reach,
                                          &rdelta)) {
      return fall_back(IncrementalFallback::kReachBailed);
    }
    deadline.check("reachability");

    LambResult result =
        internal::cover_phase(shape, reach, attempt, predetermined, deadline);
    result.stats.seconds_partition = reach.seconds_partition;
    result.stats.seconds_matrices = reach.seconds_matrices;

    outcome.result = std::move(result);
    outcome.status = SolveStatus::kCertified;
    outcome.rounds = static_cast<int>(orders.size());
    outcome.escalations = 0;
    outcome.seconds = watch.seconds();
  } catch (const SolveBudgetExceeded&) {
    return fall_back(IncrementalFallback::kBudgetExceeded);
  }

  st.used = true;
  st.fallback = IncrementalFallback::kNone;
  st.partition_cells_recomputed = rdelta.partition_cells_recomputed;
  st.partition_cells_reused = rdelta.partition_cells_reused;
  st.blocks_reused = rdelta.blocks_reused;
  st.blocks_recomputed = rdelta.blocks_recomputed;
  obs::counter("solver.incremental.used").add();
  obs::counter("solver.incremental.partition_cells_recomputed")
      .add(st.partition_cells_recomputed);
  obs::counter("solver.incremental.blocks_reused").add(st.blocks_reused);
  obs::counter("solver.incremental.blocks_recomputed")
      .add(st.blocks_recomputed);
  span.arg("blocks_reused", static_cast<double>(st.blocks_reused));

  if (options.keep_context) {
    outcome.context = std::make_shared<const SolveContext>(
        SolveContext{snapshot, orders, std::move(reach)});
  }
  return outcome;
}

}  // namespace lamb
