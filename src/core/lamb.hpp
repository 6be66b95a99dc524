// The lamb problem solvers (paper Sections 5, 6, 7).
//
// A lamb set L is a set of good nodes such that every good node outside L
// (a "survivor") can reach every survivor in k rounds of dimension-ordered
// routing; lambs may still be routed *through*, they just cannot be
// message endpoints (Definition 2.6). The solvers return a small lamb set:
//
//   * Lamb1 (Figure 14): SES/DES partitions -> R^(k) -> bipartite WVC
//     solved optimally by min-cut. A 2-approximation of the minimum lamb
//     set, in time O(k d^3 f^3 + |L|), independent of the mesh size
//     (Theorem 6.7).
//   * Lamb2 (Figure 16): reduction to WVC on a general graph over the
//     nonempty SES-DES intersections. With an r-approximate WVC solver it
//     is an r-approximation (Theorem 6.9); with the exact solver it is
//     optimal (Corollary 6.10) at exponential worst-case cost.
//
// Section 7 extensions supported by both: per-node values (partially
// failed nodes are cheaper to sacrifice), predetermined lambs (the new
// lamb set must contain a given set), arbitrary per-round orderings, and
// hypercubes M_d(2). Tori are served by the generic solver (see
// generic/generic_solver.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/reach_matrices.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"

namespace lamb {

// Thrown by lamb1/lamb2 when LambOptions::budget_seconds elapses before
// the solve completes. Callers wanting graceful degradation instead of
// an exception go through solve_lambs() below.
class SolveBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct LambOptions {
  // Number k of routing rounds; ignored when `orders` is set.
  int rounds = 2;
  // Explicit per-round orderings; defaults to ascending (XY.../e-cube) in
  // every round, the configuration of all the paper's simulations.
  std::optional<MultiRoundOrder> orders;
  // Optional per-node value in [0, 1] (Section 7); size must equal the
  // mesh size. Default value is 1 for every node.
  const std::vector<double>* node_values = nullptr;
  // Nodes that must be lambs in the output (Section 7); must be good.
  std::vector<NodeId> predetermined;
  // Wall-clock deadline for one solve; 0 disables the check. Enforced
  // cooperatively between solver phases (a running phase is never
  // interrupted), so short budgets overshoot by up to one phase. Note
  // that wall-clock budgets are inherently machine-dependent: for
  // bit-reproducible runs use 0 (never trips) or a value so small it
  // always trips at the first checkpoint (see docs/RECOVERY.md).
  double budget_seconds = 0.0;
  // solve_lambs only: retain the solver's intermediates on the returned
  // SolveOutcome so a later solve_lambs_incremental (core/incremental.hpp)
  // can reuse them. Costs memory proportional to the chain's factors
  // (the R_t and I_t matrices).
  bool keep_context = false;

  MultiRoundOrder resolved_orders(int dim) const {
    return orders ? *orders : ascending_rounds(dim, rounds);
  }
};

struct LambStats {
  std::int64_t p = 0;  // |SES partition| of round 1
  std::int64_t q = 0;  // |DES partition| of round k
  std::int64_t relevant_ses = 0;
  std::int64_t relevant_des = 0;
  double cover_weight = 0.0;
  double seconds_partition = 0.0;
  double seconds_matrices = 0.0;
  double seconds_cover = 0.0;
  double rk_density = 0.0;
};

struct LambResult {
  std::vector<NodeId> lambs;  // sorted, unique
  LambStats stats;

  std::int64_t size() const { return static_cast<std::int64_t>(lambs.size()); }
  double value(const LambOptions& opts) const;
};

// Definition 2.6's survivors, ascending: the good nodes not in `lambs` (any
// order, ids in the mesh). `mask`, when given, gets one byte per node.
std::vector<NodeId> survivor_nodes(const FaultSet& faults,
                                   const std::vector<NodeId>& lambs,
                                   std::vector<std::uint8_t>* mask = nullptr);

// Algorithm Lamb1 (2-approximation, polynomial time).
LambResult lamb1(const MeshShape& shape, const FaultSet& faults,
                 const LambOptions& options = {});

// Algorithm Lamb2. `exact` selects the exponential exact WVC solver
// (optimal lamb set, Corollary 6.10); otherwise the linear-time
// local-ratio 2-approximation of Bar-Yehuda & Even is used.
LambResult lamb2(const MeshShape& shape, const FaultSet& faults,
                 const LambOptions& options = {}, bool exact = false);

// --- Graceful degradation (the recovery loop's solver entry point) -----

enum class SolveStatus : std::uint8_t {
  kCertified,  // lamb set certified at options.rounds
  kEscalated,  // budget forced extra rounds (Section 2's k-vs-VC
               // tradeoff: each escalation needs one more virtual
               // channel); `result` is certified at `rounds`
  kUncovered,  // every rung exhausted the budget: `result` holds the
               // uncertified fallback (the predetermined lambs) and
               // `uncovered_pairs` names survivor pairs that cannot be
               // certified reachable under it
};

const char* solve_status_name(SolveStatus status);

// Opaque solver state for incremental re-solves (core/incremental.hpp).
struct SolveContext;

struct SolveOutcome {
  SolveStatus status = SolveStatus::kCertified;
  LambResult result;
  int rounds = 0;       // rounds the returned lamb set is certified for
  int escalations = 0;  // extra rounds spent beyond options.rounds
  double seconds = 0.0;
  // kUncovered only: sample of survivor pairs (under result.lambs) with
  // no certified k-round route, capped at 16 (core/verifier.hpp).
  std::vector<std::pair<NodeId, NodeId>> uncovered_pairs;

  // Whether result.lambs carries the full survivor-to-survivor guarantee.
  bool certified() const { return status != SolveStatus::kUncovered; }

  // Set when LambOptions::keep_context was on and a rung completed (never
  // on kUncovered); read by solve_lambs_incremental. Null otherwise.
  std::shared_ptr<const SolveContext> context;
};

// Runs lamb1 under options.budget_seconds, degrading instead of
// throwing: on budget exhaustion at k rounds it escalates to k+1 (up to
// `max_rounds`), splitting the remaining budget across rungs; when every
// rung times out it returns SolveStatus::kUncovered naming uncovered
// pairs. Exceptions other than SolveBudgetExceeded (caller errors such
// as bad predetermined lambs) still propagate.
SolveOutcome solve_lambs(const MeshShape& shape, const FaultSet& faults,
                         const LambOptions& options, int max_rounds = 3);
// The same solve over a sealed snapshot; a kept context shares `snapshot`
// instead of sealing a copy of the faults.
SolveOutcome solve_lambs(const std::shared_ptr<const FaultSnapshot>& snapshot,
                         const LambOptions& options, int max_rounds = 3);

}  // namespace lamb
