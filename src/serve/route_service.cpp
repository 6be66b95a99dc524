#include "serve/route_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace lamb::serve {

namespace {

obs::Counter& status_counter(ServeStatus status) {
  static obs::Counter& fresh = obs::counter("serve.fresh");
  static obs::Counter& stale = obs::counter("serve.stale");
  static obs::Counter& fallback = obs::counter("serve.fallback");
  static obs::Counter& shed = obs::counter("serve.shed");
  static obs::Counter& rejected = obs::counter("serve.rejected");
  static obs::Counter& unroutable = obs::counter("serve.unroutable");
  static obs::Counter& deadline = obs::counter("serve.deadline");
  static obs::Counter& errors = obs::counter("serve.errors");
  switch (status) {
    case ServeStatus::kFresh: return fresh;
    case ServeStatus::kStale: return stale;
    case ServeStatus::kFallback: return fallback;
    case ServeStatus::kOverloaded: return shed;
    case ServeStatus::kRejected: return rejected;
    case ServeStatus::kUnroutable: return unroutable;
    case ServeStatus::kDeadline: return deadline;
    case ServeStatus::kError: return errors;
  }
  return errors;
}

}  // namespace

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kFresh: return "fresh";
    case ServeStatus::kStale: return "stale";
    case ServeStatus::kFallback: return "fallback";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kRejected: return "rejected";
    case ServeStatus::kUnroutable: return "unroutable";
    case ServeStatus::kDeadline: return "deadline";
    case ServeStatus::kError: return "error";
  }
  return "?";
}

bool served(ServeStatus status) {
  return status == ServeStatus::kFresh || status == ServeStatus::kStale ||
         status == ServeStatus::kFallback;
}

void accumulate(ServiceStats* into, const ServiceStats& from) {
  into->submitted += from.submitted;
  into->queued += from.queued;
  into->fresh += from.fresh;
  into->stale += from.stale;
  into->fallback += from.fallback;
  into->shed += from.shed;
  into->rejected += from.rejected;
  into->unroutable += from.unroutable;
  into->deadline += from.deadline;
  into->errors += from.errors;
  into->publishes += from.publishes;
  into->max_queue_depth = std::max(into->max_queue_depth,
                                   from.max_queue_depth);
  into->floods_retained += from.floods_retained;
  into->floods_dropped += from.floods_dropped;
}

RouteService::RouteService(const manager::MachineManager& manager,
                           ServiceOptions options, std::int64_t now)
    : manager_(&manager), options_(std::move(options)) {
  if (options_.admission.shards < 1) options_.admission.shards = 1;
  shards_.reserve(static_cast<std::size_t>(options_.admission.shards));
  for (int s = 0; s < options_.admission.shards; ++s) {
    shards_.push_back(Shard{TokenBucket(options_.admission.bucket_capacity,
                                        options_.admission.refill_per_tick,
                                        now),
                            {}});
  }
  publish(now);
}

void RouteService::begin_reconfigure(std::int64_t now) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_open_) return;
    window_open_ = true;
    window_open_tick_ = now;
  }
  static obs::Counter& windows = obs::counter("serve.windows");
  windows.add();
}

void RouteService::publish(std::int64_t now) {
  RouteTable::BuildStats build;
  const std::shared_ptr<const RouteTable> prev = table();
  const std::shared_ptr<const RouteTable> next =
      RouteTable::capture(*manager_, now, prev.get(), &build);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.publishes;
    stats_.floods_retained += build.floods_retained;
    stats_.floods_dropped += build.floods_dropped;
    if (next->certified()) last_certified_ = next;
    table_ = next;
    window_open_ = false;
  }
  static obs::Counter& publishes = obs::counter("serve.publishes");
  static obs::Gauge& epoch = obs::gauge("serve.epoch");
  publishes.add();
  epoch.set(static_cast<double>(next->epoch()));
}

int RouteService::shard_of(const RouteRequest& request) const {
  const auto shards = static_cast<std::uint64_t>(shards_.size());
  if (request.shard >= 0) {
    return static_cast<int>(static_cast<std::uint64_t>(request.shard) %
                            shards);
  }
  return static_cast<int>(request.client_id % shards);
}

RouteResponse RouteService::serve(const RouteRequest& request,
                                  std::int64_t now) const {
  Stopwatch timer;
  std::shared_ptr<const RouteTable> table;
  std::shared_ptr<const RouteTable> certified;
  bool window = false;
  std::int64_t open_tick = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    table = table_;
    certified = last_certified_;
    window = window_open_;
    open_tick = window_open_tick_;
  }

  RouteResponse response;
  response.epoch = table->epoch();
  // Inside a reconfigure window the serving table is stale, and past the
  // staleness cap the ladder skips it for the fallback rung.
  response.stale_age = window ? now - open_tick : 0;
  const bool covered = table->covers(request.src, request.dst);
  const bool use_table =
      covered && (!window || response.stale_age <= options_.staleness_cap);
  Rng rng(request.rng_seed);
  std::optional<wormhole::Route> route;
  if (use_table) route = table->route(request.src, request.dst, rng);
  if (route) {
    response.status = window ? ServeStatus::kStale : ServeStatus::kFresh;
    response.route = std::move(route);
  } else if (use_table && table->certified()) {
    // Covered pair of a certified epoch: the lamb guarantee says this
    // cannot happen. Typed loudly so the soak gate catches it.
    response.status = ServeStatus::kError;
  } else if (!window && !covered) {
    response.status = ServeStatus::kUnroutable;
  } else if (certified != nullptr &&
             certified->covers(request.src, request.dst)) {
    // The last serving rung: a one-round dimension-ordered route for
    // pairs the last certified solve covered; below it only typed
    // rejection.
    response.route = certified->dim_order_route(request.src, request.dst);
    if (response.route) {
      response.status = ServeStatus::kFallback;
      response.epoch = certified->epoch();
    } else {
      response.status = ServeStatus::kRejected;
    }
  } else {
    response.status =
        covered ? ServeStatus::kRejected : ServeStatus::kUnroutable;
  }
  response.vend_seconds = timer.seconds();
  return response;
}

void RouteService::count(const RouteResponse& response) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (response.status) {
      case ServeStatus::kFresh: ++stats_.fresh; break;
      case ServeStatus::kStale: ++stats_.stale; break;
      case ServeStatus::kFallback: ++stats_.fallback; break;
      case ServeStatus::kOverloaded: ++stats_.shed; break;
      case ServeStatus::kRejected: ++stats_.rejected; break;
      case ServeStatus::kUnroutable: ++stats_.unroutable; break;
      case ServeStatus::kDeadline: ++stats_.deadline; break;
      case ServeStatus::kError: ++stats_.errors; break;
    }
  }
  status_counter(response.status).add();
  // The standard objectives, declared with SloTracker::global().
  static obs::Slo* vend_latency =
      obs::SloTracker::global().find(obs::kSloRouteVendLatency);
  static obs::Slo* availability =
      obs::SloTracker::global().find(obs::kSloServeAvailability);
  if (served(response.status) && vend_latency != nullptr) {
    vend_latency->observe_latency(response.vend_seconds);
  }
  // Availability counts answers, good or degraded, against shed/reject;
  // kUnroutable is a correct answer about a dead endpoint, not an
  // availability event, so it does not touch the objective.
  if (response.status != ServeStatus::kUnroutable && availability != nullptr) {
    availability->record(served(response.status));
  }
}

std::optional<RouteResponse> RouteService::submit(const RouteRequest& request,
                                                  std::int64_t now) {
  static obs::Counter& submitted = obs::counter("serve.submitted");
  submitted.add();
  if (request.deadline_tick >= 0 && now > request.deadline_tick) {
    RouteResponse response;
    response.status = ServeStatus::kDeadline;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
      response.epoch = table_->epoch();
    }
    count(response);
    return response;
  }

  bool serve_now = false;
  RouteResponse shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    Shard& shard = shards_[static_cast<std::size_t>(shard_of(request))];
    if (shard.queue.empty() && shard.bucket.try_take(now)) {
      serve_now = true;
    } else if (static_cast<std::int64_t>(shard.queue.size()) <
               options_.admission.max_queue_depth) {
      shard.queue.push_back(request);
      ++stats_.queued;
      const auto depth = static_cast<std::int64_t>(shard.queue.size());
      if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;
      static obs::Counter& queued = obs::counter("serve.queued");
      queued.add();
      return std::nullopt;
    } else {
      shed.status = ServeStatus::kOverloaded;
      shed.epoch = table_->epoch();
      // How long until the bucket could have drained today's backlog —
      // the typed Overloaded's retry hint, clamped to the admission
      // window so a pathological refill rate cannot instruct clients to
      // back off effectively forever.
      shed.retry_after_ticks = std::min(
          shard.bucket.ticks_until(
              static_cast<double>(shard.queue.size()) + 1.0, now),
          std::max<std::int64_t>(options_.admission.retry_after_cap, 1));
    }
  }
  if (!serve_now) {
    count(shed);
    return shed;
  }
  // Returned by move: the route's hops are not copied into the optional.
  RouteResponse response = serve(request, now);
  count(response);
  return response;
}

std::vector<RouteService::Drained> RouteService::advance(std::int64_t now) {
  struct Action {
    RouteRequest request;
    bool expired = false;
  };
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Shard& shard : shards_) {
      while (!shard.queue.empty()) {
        const RouteRequest& head = shard.queue.front();
        if (head.deadline_tick >= 0 && now > head.deadline_tick) {
          actions.push_back(Action{head, /*expired=*/true});
          shard.queue.pop_front();
          continue;
        }
        if (!shard.bucket.try_take(now)) break;
        actions.push_back(Action{head, /*expired=*/false});
        shard.queue.pop_front();
      }
    }
  }
  std::vector<Drained> out;
  out.reserve(actions.size());
  for (const Action& action : actions) {
    RouteResponse response;
    if (action.expired) {
      response.status = ServeStatus::kDeadline;
      response.epoch = table()->epoch();
    } else {
      response = serve(action.request, now);
    }
    count(response);
    out.push_back(Drained{action.request, std::move(response)});
  }
  return out;
}

std::vector<RouteRequest> RouteService::evict_queue() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RouteRequest> out;
  for (Shard& shard : shards_) {
    out.insert(out.end(), shard.queue.begin(), shard.queue.end());
    shard.queue.clear();
  }
  if (!out.empty()) {
    static obs::Counter& evicted = obs::counter("serve.evicted");
    evicted.add(static_cast<std::int64_t>(out.size()));
  }
  return out;
}

std::int64_t RouteService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<std::int64_t>(shard.queue.size());
  }
  return total;
}

ServiceStats RouteService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lamb::serve
