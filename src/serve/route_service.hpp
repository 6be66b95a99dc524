// RouteService: the route-vending front-end over MachineManager.
//
// Many concurrent clients ask for survivor routes while fault storms and
// reconfigurations run underneath. The service holds the current
// RouteTable as a shared_ptr under its one mutex, so a vend is: copy the
// epoch state in one short critical section, then route against that
// immutable epoch outside it. publish() builds a NEW table off to the
// side and swaps the pointer under the same mutex — readers never block
// on the solver, and an in-flight reader keeps its (now previous) epoch
// alive until it returns.
//
// The degradation ladder (docs/SERVING.md): while a reconfigure window
// is open the service keeps serving the stale epoch up to a staleness
// cap, then falls back to one-round dimension-ordered routes for pairs
// the last CERTIFIED epoch covered, and only then rejects — every
// outcome is a typed status, never an unbounded queue.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/admission.hpp"
#include "serve/route_table.hpp"

namespace lamb::serve {

enum class ServeStatus : std::uint8_t {
  kFresh = 0,    // routed from the current epoch's table
  kStale,        // reconfigure in flight; routed from the stale epoch
  kFallback,     // one-round dim-ordered route from the last certified epoch
  kOverloaded,   // shed by admission control; retry_after_ticks is set
  kRejected,     // degradation ladder exhausted (window open, cap passed)
  kUnroutable,   // an endpoint is not a survivor of the consulted epochs
  kDeadline,     // the request's deadline passed before it could be served
  kError,        // covered pair of a certified epoch failed to route — a
                 // guarantee violation; counted as failed_requests
};

const char* to_string(ServeStatus status);
// Terminal-with-a-route statuses (fresh/stale/fallback).
bool served(ServeStatus status);

struct RouteRequest {
  std::uint64_t client_id = 0;
  std::int64_t seq = 0;  // client-local request number
  int attempt = 1;
  NodeId src = 0;
  NodeId dst = 0;
  std::int64_t submit_tick = 0;
  std::int64_t deadline_tick = -1;  // -1: no deadline
  int shard = -1;  // -1: hash client_id; >= 0: explicit (hedged retries)
  // Seed for the route tie-break stream. Responses depend only on the
  // table epoch and the request — never on service call order — which is
  // what keeps the outcome digest thread-count invariant.
  std::uint64_t rng_seed = 0;
};

struct RouteResponse {
  ServeStatus status = ServeStatus::kError;
  int epoch = 0;                      // epoch that produced the route
  std::int64_t retry_after_ticks = 0;  // kOverloaded hint
  std::int64_t stale_age = 0;          // ticks into the window, kStale
  double vend_seconds = 0.0;           // wall time of serve(): table load
                                       // through route pick; excludes
                                       // admission and queue wait
  std::optional<wormhole::Route> route;
};

struct ServiceOptions {
  AdmissionOptions admission;
  // How long into a reconfigure window the stale epoch may still be
  // served before the ladder drops to dimension-ordered fallback.
  std::int64_t staleness_cap = 8;
};

// What a serve::Client talks to: one RouteService, or a fleet of them
// behind fleet::FleetManager. The interface is exactly the client-facing
// surface — submit plus the two read paths the retry machine needs (a
// table to pick survivor pairs from, and a health-aware answer to "where
// should a hedged re-submit land").
class Backend {
 public:
  virtual ~Backend() = default;

  // Admission + vend; nullopt when the request was queued (its response
  // arrives from a later advance()).
  virtual std::optional<RouteResponse> submit(const RouteRequest& request,
                                              std::int64_t now) = 0;

  // The table this client should pick survivor pairs from (the fleet
  // returns the table of the shard that would currently serve the
  // client). Never null.
  virtual std::shared_ptr<const RouteTable> table_for(
      std::uint64_t client_id) const = 0;

  // Where a hedged re-submit of `request` should land (the value the
  // client puts in RouteRequest::shard), or -1 when no shard is worth
  // hedging to. The fleet routes this through its health view so a hedge
  // never lands on a quarantined shard.
  virtual int hedge_shard(const RouteRequest& request) const = 0;
};

// Monotone counters for reports and the BENCH_serve.json document (the
// same values feed the serve.* metrics).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t queued = 0;
  std::int64_t fresh = 0;
  std::int64_t stale = 0;
  std::int64_t fallback = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t unroutable = 0;
  std::int64_t deadline = 0;
  std::int64_t errors = 0;
  std::int64_t publishes = 0;
  std::int64_t max_queue_depth = 0;  // high-water mark, all shards
  std::int64_t floods_retained = 0;
  std::int64_t floods_dropped = 0;
};

// Member-wise sum (max for the high-water mark). The fleet layer folds a
// dead shard's final stats into its running total with this before the
// service object is destroyed.
void accumulate(ServiceStats* into, const ServiceStats& from);

class RouteService : public Backend {
 public:
  // The manager must already be configured (epoch >= 1, no pending
  // reports); the constructor publishes its configuration as the first
  // table. The manager is borrowed and must outlive the service; all
  // manager mutation (reports, reconfigure) stays with the caller —
  // the service only captures configurations at publish().
  RouteService(const manager::MachineManager& manager, ServiceOptions options,
               std::int64_t now = 0);

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  // --- Epoch plane (called by the reconfiguration driver) ---
  // Marks the serving table stale: new faults were reported and the
  // solver is (conceptually) running. Idempotent while open.
  void begin_reconfigure(std::int64_t now);
  // Publishes the manager's current configuration as the new epoch with
  // one pointer swap and closes the window. Call after reconfigure().
  void publish(std::int64_t now);
  bool reconfiguring() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_open_;
  }

  // The current table snapshot (never null). Clients use it to pick
  // covered pairs; holding the pointer is what RCU readers do.
  std::shared_ptr<const RouteTable> table() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_;
  }
  std::shared_ptr<const RouteTable> last_certified() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_certified_;
  }

  // --- Request plane ---
  // Admission + vend. Returns the response, or nullopt when the request
  // was queued (its response is delivered by a later advance()).
  std::optional<RouteResponse> submit(const RouteRequest& request,
                                      std::int64_t now) override;

  // Backend: the one table, regardless of client.
  std::shared_ptr<const RouteTable> table_for(
      std::uint64_t /*client_id*/) const override {
    return table();
  }
  // Backend: single-service hedging stays the historical "next admission
  // shard by index" (shard_of mods it into range).
  int hedge_shard(const RouteRequest& request) const override {
    return static_cast<int>(request.client_id & 0x3fffffff) + 1;
  }

  struct Drained {
    RouteRequest request;
    RouteResponse response;
  };
  // Refills every shard's bucket at `now` and serves queue heads while
  // tokens last (deadline-expired entries resolve without consuming a
  // token). Deterministic order: shard 0..n, FIFO within a shard.
  std::vector<Drained> advance(std::int64_t now);

  // Removes and returns every queued request, FIFO within a shard, shard
  // 0..n, WITHOUT resolving them. The fleet layer uses this when a shard
  // is quarantined: its queue is dead weight — the requests are failed
  // over to a healthy shard instead of timing out in a dead queue.
  std::vector<RouteRequest> evict_queue();

  std::int64_t queue_depth() const;  // total over shards, at this instant
  ServiceStats stats() const;

 private:
  struct Shard {
    TokenBucket bucket;
    std::deque<RouteRequest> queue;
  };

  int shard_of(const RouteRequest& request) const;
  // The degradation ladder; admission already happened.
  RouteResponse serve(const RouteRequest& request, std::int64_t now) const;
  void count(const RouteResponse& response) const;

  const manager::MachineManager* manager_;
  ServiceOptions options_;

  // The epoch state (table_, last_certified_, the window) and the
  // admission state (shards_, stats_), all under mu_.
  mutable std::mutex mu_;
  std::shared_ptr<const RouteTable> table_;
  std::shared_ptr<const RouteTable> last_certified_;
  bool window_open_ = false;
  std::int64_t window_open_tick_ = 0;
  std::vector<Shard> shards_;
  mutable ServiceStats stats_;
};

}  // namespace lamb::serve
