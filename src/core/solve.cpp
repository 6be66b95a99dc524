// Graceful solver degradation (the recovery loop's entry point): run
// lamb1 under a wall-clock budget and, instead of throwing when the
// budget runs out, climb the degradation ladder — one extra routing
// round per rung (Section 2's rounds-vs-virtual-channels tradeoff: a
// k+1-round configuration needs one more virtual channel but has a much
// denser R^(k+1), hence a cheaper cover) — and, when every rung times
// out, report the survivor pairs the fallback configuration leaves
// uncovered so the caller can choose degrade-vs-abort.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "core/lamb.hpp"
#include "core/lamb_internal.hpp"
#include "core/verifier.hpp"
#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace lamb {

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kCertified: return "certified";
    case SolveStatus::kEscalated: return "escalated";
    case SolveStatus::kUncovered: return "uncovered";
  }
  return "?";
}

namespace {

// The ladder over `faults`. A kept context holds `sealed`, which must be
// null or a snapshot of exactly `faults`; null seals one on demand.
SolveOutcome solve_ladder(const MeshShape& shape, const FaultSet& faults,
                          std::shared_ptr<const FaultSnapshot> sealed,
                          const LambOptions& options, int max_rounds) {
  obs::Span span("solver.solve_lambs", "solver");
  Stopwatch watch;
  SolveOutcome outcome;

  MultiRoundOrder orders = options.resolved_orders(shape.dim());
  const int base_rounds = static_cast<int>(orders.size());
  max_rounds = std::max(max_rounds, base_rounds);

  LambOptions attempt = options;
  double remaining = options.budget_seconds;
  for (int rounds = base_rounds; rounds <= max_rounds; ++rounds) {
    // Split what is left of the budget evenly over the remaining rungs,
    // so one pathological rung cannot starve the ladder below it.
    const int rungs_left = max_rounds - rounds + 1;
    attempt.orders = orders;
    // Keep the deadline armed even when the budget is already blown: a
    // zero budget would mean "unlimited" to lamb1.
    constexpr double kMinBudget = 1e-9;
    attempt.budget_seconds =
        options.budget_seconds > 0.0
            ? std::max(remaining / static_cast<double>(rungs_left),
                       kMinBudget)
            : 0.0;
    try {
      ReachComputation reach;
      outcome.result = internal::lamb1_core(shape, faults, attempt, &reach);
      outcome.rounds = rounds;
      outcome.escalations = rounds - base_rounds;
      outcome.status = outcome.escalations == 0 ? SolveStatus::kCertified
                                                : SolveStatus::kEscalated;
      outcome.seconds = watch.seconds();
      if (outcome.escalations > 0) {
        obs::counter("solver.degrade.escalations")
            .add(outcome.escalations);
      }
      if (options.keep_context) {
        if (sealed == nullptr) sealed = seal(faults);
        outcome.context = std::make_shared<const SolveContext>(SolveContext{
            std::move(sealed), *attempt.orders, std::move(reach)});
      }
      span.arg("rounds", rounds);
      span.arg("escalations", outcome.escalations);
      return outcome;
    } catch (const SolveBudgetExceeded&) {
      remaining = options.budget_seconds - watch.seconds();
      orders.push_back(DimOrder::ascending(shape.dim()));
    }
  }

  // Every rung timed out: fall back to the predetermined lambs (the
  // previous epoch's configuration) without a certificate, and name a
  // sample of the survivor pairs it leaves uncovered.
  outcome.status = SolveStatus::kUncovered;
  outcome.rounds = 0;
  outcome.escalations = max_rounds - base_rounds;
  outcome.result = LambResult{};
  outcome.result.lambs = internal::checked_predetermined(faults, options);
  outcome.uncovered_pairs = unreachable_survivor_pairs(
      shape, faults, options.resolved_orders(shape.dim()),
      outcome.result.lambs);
  outcome.seconds = watch.seconds();
  obs::counter("solver.degrade.uncovered").add();
  span.arg("rounds", 0);
  return outcome;
}

}  // namespace

SolveOutcome solve_lambs(const MeshShape& shape, const FaultSet& faults,
                         const LambOptions& options, int max_rounds) {
  return solve_ladder(shape, faults, nullptr, options, max_rounds);
}

SolveOutcome solve_lambs(const std::shared_ptr<const FaultSnapshot>& snapshot,
                         const LambOptions& options, int max_rounds) {
  return solve_ladder(*snapshot->shape, snapshot->faults, snapshot, options,
                      max_rounds);
}

}  // namespace lamb
