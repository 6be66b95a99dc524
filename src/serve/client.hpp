// serve::Client — the retry state machine a well-behaved route consumer
// runs against a serve::Backend (one RouteService, or a whole fleet
// behind fleet::FleetManager; docs/SERVING.md "Client behavior").
//
// A client issues one request at a time: it picks a survivor pair from
// the backend's current table, submits, and on a typed rejection retries
// with capped exponential backoff plus jitter (honoring the LARGEST
// Overloaded retry_after hint the request has seen — when both the
// primary and the hedge shed, the stricter of the two hints wins).
// Optional hedging re-submits the first shed request to the shard the
// backend's hedge_shard() picks — the fleet routes that through its
// health view, so a hedge never lands on a quarantined shard. Requests
// carry an optional deadline; a client never retries past it.
//
// The machine is driven by an external clock (step(now) once per tick),
// so thousands of clients interleave deterministically in the loadgen's
// virtual time — no threads, no wall clock, digest-stable outcomes.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/route_service.hpp"
#include "support/rng.hpp"

namespace lamb::serve {

struct ClientOptions {
  std::int64_t issue_period = 4;  // ticks from a resolution to the next issue
  int max_attempts = 6;           // submissions per request, hedges included
  std::int64_t backoff_base = 2;  // first retry delay, ticks
  std::int64_t backoff_cap = 32;  // delay ceiling, ticks
  double jitter = 0.5;            // uniform +/- fraction applied to a delay
  bool hedge = false;             // re-submit a first shed to the next shard
  std::int64_t deadline_ticks = -1;  // per-request budget; -1 = none
};

class Client {
 public:
  // One terminal resolution of a request (after all retries).
  struct Outcome {
    std::uint64_t client = 0;
    std::int64_t seq = 0;
    ServeStatus status = ServeStatus::kError;
    int attempts = 1;
    int epoch = 0;
    std::int64_t route_length = 0;   // hops; 0 when no route was served
    std::int64_t latency_ticks = 0;  // first submit -> resolution
    // Wall time the service spent building the final response's route;
    // reported for quantiles, never folded into outcome digests.
    double vend_seconds = 0.0;
  };

  Client(std::uint64_t id, std::uint64_t seed, const ClientOptions& options,
         Backend* service);

  // Advances the machine one tick: issues a new request when idle and
  // due, re-submits a backed-off one. Terminal resolutions (including
  // any from an immediate response) are appended to `out`.
  void step(std::int64_t now, std::vector<Outcome>* out);

  // Delivers the response of a previously queued request.
  void on_response(const RouteRequest& request, const RouteResponse& response,
                   std::int64_t now, std::vector<Outcome>* out);

  // While draining, no NEW requests are issued; in-flight retries still
  // run. The loadgen's cooldown uses this to empty the queues.
  void set_draining(bool on) { draining_ = on; }
  bool settled() const { return state_ == State::kIdle; }

  std::uint64_t id() const { return id_; }

 private:
  enum class State { kIdle, kPending, kBackoff };

  void submit(std::int64_t now, std::vector<Outcome>* out);
  void resolve(const RouteResponse& response, std::int64_t now,
               std::vector<Outcome>* out);
  void finish(ServeStatus status, const RouteResponse& response,
              std::int64_t now, std::vector<Outcome>* out);
  std::int64_t backoff_delay(const RouteResponse& response);

  std::uint64_t id_;
  std::uint64_t seed_;
  Rng rng_;
  ClientOptions options_;
  Backend* service_;

  State state_ = State::kIdle;
  bool draining_ = false;
  std::int64_t next_issue_ = 0;

  // Current request.
  std::int64_t seq_ = 0;
  int attempt_ = 0;
  bool hedged_ = false;
  int hedge_shard_ = -1;  // explicit shard for the hedged re-submit
  // Largest Overloaded retry_after hint seen by THIS request (primary
  // and hedge sheds both feed it); backoff never undercuts it.
  std::int64_t retry_after_hint_ = 0;
  NodeId src_ = 0;
  NodeId dst_ = 0;
  std::int64_t first_submit_ = 0;
  std::int64_t deadline_ = -1;
  std::int64_t retry_at_ = 0;
};

}  // namespace lamb::serve
