// Traffic generation for the wormhole simulator. Patterns are the
// standard interconnect workloads (uniform random, transpose, bit
// reversal, hot spot); sources and destinations are restricted to
// SURVIVOR nodes — faulty nodes cannot communicate and lamb nodes may
// route but not originate or sink traffic (paper Definition 2.6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/network.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb::wormhole {

enum class Pattern {
  kUniform,     // independent uniform survivor pairs
  kTranspose,   // (x, y, ...) -> (y, x, ...) on the first two dims
  kBitReversal, // index bits reversed
  kHotSpot,     // uniform sources, one fixed survivor destination
};

struct TrafficConfig {
  Pattern pattern = Pattern::kUniform;
  std::int64_t num_messages = 200;
  int message_flits = 8;
  // Mean inter-injection gap in cycles (injections are spread uniformly
  // over num_messages * gap cycles).
  double injection_gap = 2.0;
  // Fraction of survivors eligible to originate traffic. 1.0 (the
  // default) lets every survivor inject; smaller values pick an evenly
  // spaced deterministic subset — e.g. 0.01 models a near-idle machine
  // where 1% of nodes trickle messages across an otherwise quiet mesh
  // (the event engine's showcase workload; see docs/SIMULATOR.md).
  // Destinations always range over all survivors.
  double injector_fraction = 1.0;
};

struct TrafficResult {
  std::vector<Message> messages;
  std::int64_t unroutable = 0;  // pairs with no k-round route (should be 0
                                // when survivors come from a valid lamb set)
  Samples route_hops;  // per-message route lengths, for p50/p95/p99

  // One-line human-readable report: message count, unroutable pairs, and
  // the route-length quantiles.
  std::string summary() const;
};

// Generates routed messages between survivors, routed through `routes`
// (optionally load-aware, see RouteCache::build). `lambs` (sorted or not)
// are excluded as endpoints.
TrafficResult generate_traffic(const MeshShape& shape, const FaultSet& faults,
                               const std::vector<NodeId>& lambs,
                               RouteCache& routes, const TrafficConfig& config,
                               Rng& rng, NodeLoad* load = nullptr);

}  // namespace lamb::wormhole
