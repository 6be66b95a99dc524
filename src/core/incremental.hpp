// Incremental re-solve (the O(delta) reconfiguration path): when faults
// arrive a few at a time, the previous certified solve's partitions and
// reachability matrices are mostly still valid, and
// solve_lambs_incremental recomputes only what the new faults touched.
// Two reuse layers:
//
//   1. Partition repair (core/partition.*): the Find-Partition run
//      itself, recursing only into the outer-level peel subtrees a new
//      fault landed in; untouched subtrees are spliced from the previous
//      partition. Bails when the damage merges regions.
//   2. Reach-matrix block reuse (core/reach_matrices.*): every R_t row
//      and column is copied from its parent's (the old cell holding the
//      new cell's representative), then every entry whose
//      dimension-ordered route runs through a delta fault (a node on it,
//      or a link it traverses in a now-faulty direction) is cleared by
//      exact bit masks; the full run's intersection builder splices the
//      entries of cells the repair kept verbatim. No reachability oracle
//      is kept or queried. The R-chain itself is recomputed in full
//      (core/reach_matrices.hpp, reach_chain), which the saturating
//      product makes cheaper than splicing its rows.
//
// The cover is then found by the same cold min-cut (internal::cover_phase)
// the full solve runs. The result is bit-identical to solve_lambs on the
// same cumulative fault set at any thread count: the two layers reproduce
// the exact matrices, and the cover phase is the same code. On any
// condition that voids the reuse (escalated or uncovered previous
// outcome, merged partition regions, changed orderings, budget
// exhaustion mid-reuse) the call falls back to the full solve_lambs —
// the caller always gets a valid SolveOutcome.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"

namespace lamb {

// Solver state retained on a SolveOutcome (LambOptions::keep_context):
// the certified solve's one ReachComputation, every factor an
// incremental step reuses. Immutable once built: it shares the sealed
// snapshot it was solved against, and an incremental step reads it
// without consuming it.
struct SolveContext {
  std::shared_ptr<const FaultSnapshot> snapshot;  // cumulative faults
  MultiRoundOrder orders;  // the orders the outcome was certified with
  ReachComputation reach;
};

// Why an incremental attempt fell back to the full solve (or kNone).
enum class IncrementalFallback : std::uint8_t {
  kNone,             // incremental path produced the outcome
  kNoContext,        // previous outcome carried no context
  kNotCertified,     // previous outcome was kUncovered
  kShapeMismatch,    // different mesh, orders, or escalated rounds
  kNotSuperset,      // new fault set does not contain the previous one
  kReachBailed,      // partition repair or matrix layer bailed
  kBudgetExceeded,   // deadline tripped mid-incremental
};

const char* incremental_fallback_name(IncrementalFallback reason);

// Per-layer accounting of one solve_lambs_incremental call.
struct IncrementalStats {
  bool used = false;  // false => full solve ran; see `fallback`
  IncrementalFallback fallback = IncrementalFallback::kNone;
  std::int64_t delta_nodes = 0;
  std::int64_t delta_links = 0;
  std::int64_t partition_cells_recomputed = 0;
  std::int64_t partition_cells_reused = 0;
  std::int64_t blocks_reused = 0;
  std::int64_t blocks_recomputed = 0;
};

// Re-solves after the fault set grew from prev.context's snapshot to
// `snapshot` (which must be a superset; anything else falls back). The
// returned outcome — status, LambResult, everything — is bit-identical
// to solve_lambs(snapshot, options, max_rounds). `options` should be the
// same options the previous solve ran with; keep_context on the options
// controls whether the NEW outcome carries a context in turn, which then
// shares `snapshot` on the incremental path and its fallback alike.
SolveOutcome solve_lambs_incremental(
    const std::shared_ptr<const FaultSnapshot>& snapshot,
    const SolveOutcome& prev, const LambOptions& options, int max_rounds = 3,
    IncrementalStats* stats = nullptr);

}  // namespace lamb
