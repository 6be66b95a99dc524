// Internal helpers shared by the Lamb1 and Lamb2 solvers: vertex weights
// under the Section 7 extensions (node values, predetermined lambs) and
// lamb-set assembly. Not part of the public API.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lamb.hpp"
#include "mesh/rect_set.hpp"
#include "support/stats.hpp"

namespace lamb::internal {

// Cooperative solver deadline (LambOptions::budget_seconds): phases call
// check() at their boundaries; a phase in flight is never interrupted.
class Deadline {
 public:
  explicit Deadline(double budget_seconds) : budget_(budget_seconds) {}

  void check(const char* phase) const {
    if (budget_ > 0.0 && watch_.seconds() > budget_) {
      throw SolveBudgetExceeded(std::string("solve budget of ") +
                                std::to_string(budget_) +
                                "s exceeded after " + phase);
    }
  }

 private:
  double budget_;
  Stopwatch watch_;
};

// Sorted unique copy of the predetermined-lamb list; validates goodness.
inline std::vector<NodeId> checked_predetermined(const FaultSet& faults,
                                                 const LambOptions& options) {
  std::vector<NodeId> p = options.predetermined;
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  for (NodeId id : p) {
    if (id < 0 || id >= faults.shape().size() || faults.node_faulty(id)) {
      throw std::invalid_argument(
          "LambOptions::predetermined must list good nodes");
    }
  }
  return p;
}

inline bool contains_sorted(const std::vector<NodeId>& sorted, NodeId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

// Weight of a rectangular candidate set: sum of node values over its
// members, excluding predetermined lambs (which are free to sacrifice).
// With default values this is |rect| - |rect ∩ P|, computed without
// enumerating the rectangle.
inline double rect_weight(const MeshShape& shape, const RectSet& rect,
                          const LambOptions& options,
                          const std::vector<NodeId>& predetermined) {
  if (options.node_values == nullptr) {
    std::int64_t overlap = 0;
    for (NodeId id : predetermined) {
      if (rect.contains(shape.point(id))) ++overlap;
    }
    return static_cast<double>(rect.size() - overlap);
  }
  const std::vector<double>& values = *options.node_values;
  if (static_cast<NodeId>(values.size()) != shape.size()) {
    throw std::invalid_argument(
        "LambOptions::node_values size must equal the mesh size");
  }
  double total = 0.0;
  rect.for_each([&](const Point& p) {
    const NodeId id = shape.index(p);
    if (!contains_sorted(predetermined, id)) {
      total += values[static_cast<std::size_t>(id)];
    }
  });
  return total;
}

inline void finalize_lambs(std::vector<NodeId>* lambs,
                           const std::vector<NodeId>& predetermined) {
  lambs->insert(lambs->end(), predetermined.begin(), predetermined.end());
  std::sort(lambs->begin(), lambs->end());
  lambs->erase(std::unique(lambs->begin(), lambs->end()), lambs->end());
}

// Lamb1 that hands back its reachability computation (the state an
// incremental re-solve reuses). `reach_out`, when non-null, is filled by
// every run that returns.
LambResult lamb1_core(const MeshShape& shape, const FaultSet& faults,
                      const LambOptions& options, ReachComputation* reach_out);

// The cover phase of Lamb1 (relevant rows/cols -> WVC -> lamb assembly),
// shared verbatim by the from-scratch and incremental paths so their
// iteration order — and therefore their output — is identical. Fills
// result.stats' cover-phase fields (p, q, rk_density, relevant counts,
// cover_weight, seconds_cover).
LambResult cover_phase(const MeshShape& shape, const ReachComputation& reach,
                       const LambOptions& options,
                       const std::vector<NodeId>& predetermined,
                       const Deadline& deadline);

}  // namespace lamb::internal
