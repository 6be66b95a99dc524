// Route validator derived from the paper's definitions, not from the
// route builder.
//
// For a route vended against an epoch's table it checks what Defs
// 2.1-2.5 promise a survivor pair: both endpoints are survivors of that
// epoch; every hop moves to a mesh neighbour over a link that is not
// faulty into a node that is not faulty; the hops form at most k rounds,
// each dimension-ordered by that round's order (monotone in dimension
// position, one direction per dimension) and each on virtual channel
// hop.vc == round; the route ends at the destination; and it makes at
// most k(d-1)+(k-1) turns. The fault lookups are the validator's own,
// rebuilt from the table's fault records.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/route_table.hpp"

namespace pipebench {

class RouteValidator {
 public:
  // `orders` are the configured round orders (pi_1..pi_k); the workloads
  // run without a solve budget, so they never escalate.
  explicit RouteValidator(lamb::MultiRoundOrder orders)
      : orders_(std::move(orders)) {}

  // Validates `route` against `table`'s epoch on a mesh (no wraparound
  // links). Returns an empty string when valid, else the first violation.
  std::string check(const std::shared_ptr<const lamb::serve::RouteTable>& table,
                    const lamb::wormhole::Route& route);

 private:
  // Fault and survivor lookups of one table, built on first use.
  struct EpochView {
    // Held so the table's address cannot be reused while cached.
    std::shared_ptr<const lamb::serve::RouteTable> table;
    std::vector<std::uint8_t> node_bad;
    std::vector<std::uint8_t> survivor;
    std::vector<std::uint8_t> link_bad;  // per (node, dim, dir)
  };
  const EpochView& view_of(
      const std::shared_ptr<const lamb::serve::RouteTable>& table);

  lamb::MultiRoundOrder orders_;
  EpochView view_;
};

}  // namespace pipebench
