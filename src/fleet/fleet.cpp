#include "fleet/fleet.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/text_format.hpp"
#include "mesh/fault_set.hpp"
#include "obs/obs.hpp"

namespace lamb::fleet {

const char* to_string(ShardHealth health) {
  switch (health) {
    case ShardHealth::kServing: return "serving";
    case ShardHealth::kDegraded: return "degraded";
    case ShardHealth::kQuarantined: return "quarantined";
    case ShardHealth::kRecovering: return "recovering";
  }
  return "?";
}

FleetManager::FleetManager(FleetOptions options, std::int64_t now)
    : options_(std::move(options)),
      shape_(io::parse_geometry(options_.mesh)) {
  if (options_.shards < 1) {
    throw std::invalid_argument("fleet: shards must be >= 1");
  }
  if (options_.state_root.empty()) {
    throw std::invalid_argument("fleet: state_root is required");
  }
  Rng rng(options_.seed);
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    ShardState shard;
    shard.dir = options_.state_root + "/shard-" + std::to_string(i);
    std::error_code ec;
    std::filesystem::remove_all(shard.dir, ec);
    shard.manager = std::make_unique<manager::MachineManager>(shape_);
    if (options_.initial_node_faults > 0) {
      Rng shard_rng(rng.child_seed(static_cast<std::uint64_t>(i)));
      const FaultSet initial = FaultSet::random_nodes(
          shape_, options_.initial_node_faults, shard_rng);
      for (const NodeId id : initial.node_faults()) {
        shard.manager->report_node_fault(id);
      }
    }
    shard.manager->reconfigure();
    io::DurableOptions durable;
    durable.fsync = options_.fsync;
    shard.manager->enable_durability(shard.dir, durable);
    shard.service = std::make_unique<serve::RouteService>(
        *shard.manager, options_.service, now);
    shard.burn = BurnWindow(options_.health_window);
    shard.last_heartbeat = now;
    shard.last_epoch = shard.manager->epoch();
    shards_.push_back(std::move(shard));
  }
  fallback_table_ = shards_.front().service->table();
  obs::gauge("fleet.shards").set(static_cast<double>(options_.shards));
}

FleetManager::~FleetManager() = default;

bool FleetManager::eligible(int shard) const {
  const ShardState& s = shards_[static_cast<std::size_t>(shard)];
  return s.service != nullptr && s.health != ShardHealth::kQuarantined;
}

int FleetManager::route_for(std::uint64_t client_id) const {
  const int n = shard_count();
  const int primary =
      static_cast<int>(client_id % static_cast<std::uint64_t>(n));
  // A degraded or recovering primary keeps its own clients (stickiness
  // preserves queue ordering and avoids thundering-herd failback).
  if (eligible(primary)) return primary;
  for (int k = 1; k < n; ++k) {
    const int i = (primary + k) % n;
    if (shards_[static_cast<std::size_t>(i)].service != nullptr &&
        shards_[static_cast<std::size_t>(i)].health == ShardHealth::kServing) {
      return i;
    }
  }
  // No SERVING shard left: last resort, spill onto a degraded/recovering
  // one rather than shedding outright.
  for (int k = 1; k < n; ++k) {
    const int i = (primary + k) % n;
    if (eligible(i)) return i;
  }
  return -1;
}

void FleetManager::record_outcome(int shard,
                                  const serve::RouteResponse& response) {
  // kUnroutable is a correct answer about a dead endpoint, not an
  // availability event — same classification as serve_availability.
  if (response.status == serve::ServeStatus::kUnroutable) return;
  const bool good = serve::served(response.status);
  if (shard >= 0) {
    shards_[static_cast<std::size_t>(shard)].burn.record(good);
  }
  static obs::Slo* slo =
      obs::SloTracker::global().find(obs::kSloFleetAvailability);
  if (slo != nullptr) slo->record(good);
}

std::optional<serve::RouteResponse> FleetManager::submit(
    const serve::RouteRequest& request, std::int64_t now) {
  ++stats_.routed;
  const int n = shard_count();
  const int primary =
      static_cast<int>(request.client_id % static_cast<std::uint64_t>(n));
  int target;
  if (request.shard >= 0) {
    // A hedge: the client got this index from hedge_shard(), which only
    // vends SERVING shards — but re-check in case health moved.
    ++stats_.hedges_redirected;
    target = request.shard % n;
    if (!eligible(target)) target = route_for(request.client_id);
  } else {
    target = route_for(request.client_id);
  }
  if (target < 0) {
    ++stats_.no_healthy_shard;
    serve::RouteResponse shed;
    shed.status = serve::ServeStatus::kOverloaded;
    shed.retry_after_ticks =
        std::max<std::int64_t>(options_.service.admission.retry_after_cap, 1);
    obs::counter("fleet.no_healthy_shard").add();
    record_outcome(-1, shed);
    return shed;
  }
  if (request.shard < 0 && target != primary) {
    ++stats_.failovers;
    obs::counter("fleet.failovers").add();
  }
  serve::RouteRequest inner = request;
  inner.shard = -1;  // admission re-hashes client_id inside the shard
  const std::optional<serve::RouteResponse> response =
      shards_[static_cast<std::size_t>(target)].service->submit(inner, now);
  if (response.has_value()) record_outcome(target, *response);
  return response;
}

std::shared_ptr<const serve::RouteTable> FleetManager::table_for(
    std::uint64_t client_id) const {
  const int target = route_for(client_id);
  if (target >= 0) {
    return shards_[static_cast<std::size_t>(target)].service->table();
  }
  for (const ShardState& shard : shards_) {
    if (shard.service != nullptr) return shard.service->table();
  }
  return fallback_table_;
}

int FleetManager::hedge_shard(const serve::RouteRequest& request) const {
  const int n = shard_count();
  const int serving = route_for(request.client_id);
  if (serving < 0) return -1;
  for (int k = 1; k < n; ++k) {
    const int i = (serving + k) % n;
    const ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (s.service != nullptr && s.health == ShardHealth::kServing) return i;
  }
  return -1;
}

void FleetManager::open_window(int shard, std::int64_t now) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.service != nullptr) s.service->begin_reconfigure(now);
  if (token_holder_ == shard || s.waiting || s.publish_due >= 0) return;
  s.waiting = true;
  s.wait_since = now;
  token_queue_.push_back(shard);
}

void FleetManager::cancel_window(int shard) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (token_holder_ == shard) {
    token_holder_ = -1;
    s.publish_due = -1;
    s.boot = false;
  }
  if (s.waiting) {
    s.waiting = false;
    s.boot = false;
    token_queue_.erase(
        std::remove(token_queue_.begin(), token_queue_.end(), shard),
        token_queue_.end());
  }
}

void FleetManager::quarantine(int shard, std::int64_t now) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  const bool already = s.health == ShardHealth::kQuarantined;
  s.health = ShardHealth::kQuarantined;
  s.cooloff_until = std::max(s.cooloff_until,
                             now + options_.quarantine_cooloff);
  cancel_window(shard);
  if (!already) {
    ++stats_.quarantines;
    obs::counter("fleet.quarantines").add();
  }
  if (s.service == nullptr) return;
  // The queue is dead weight in a quarantined shard: fail the waiting
  // requests over through the fleet path NOW, before the service (and
  // its counters) are folded and destroyed.
  std::vector<serve::RouteRequest> evicted = s.service->evict_queue();
  stats_.evicted += static_cast<std::int64_t>(evicted.size());
  serve::accumulate(&s.retired, s.service->stats());
  if (s.manager != nullptr) s.last_epoch = s.manager->epoch();
  s.service.reset();
  for (serve::RouteRequest& request : evicted) {
    request.shard = -1;  // reroute through the health view
    const std::optional<serve::RouteResponse> response = submit(request, now);
    if (response.has_value()) {
      pending_drains_.push_back(
          serve::RouteService::Drained{request, *response});
    }
  }
}

void FleetManager::apply_report(manager::MachineManager* manager,
                                const PendingReport& report) {
  if (report.link) {
    manager->report_link_fault(shape_.point(report.node), report.dim,
                               report.dir);
  } else {
    manager->report_node_fault(report.node);
  }
}

void FleetManager::boot_shard(int shard, std::int64_t now) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.manager == nullptr) {
    // kReopen: the crash-restart path. The journal was written before
    // every applied report, so the reopened manager is byte-for-byte the
    // state the killed one had — the kLive arm asserts exactly that.
    io::DurableOptions durable;
    durable.fsync = options_.fsync;
    s.manager = manager::MachineManager::open(s.dir, {}, 3, nullptr, nullptr,
                                              durable);
    if (s.manager == nullptr) {
      throw std::runtime_error("fleet: shard state dir unrecoverable: " +
                               s.dir);
    }
    ++stats_.reopens;
    obs::counter("fleet.reopens").add();
  }
  for (const PendingReport& report : s.backlog) {
    apply_report(s.manager.get(), report);
  }
  s.backlog.clear();
  if (s.manager->has_pending_reports()) s.manager->reconfigure();
  // A fresh service (cold route cache) in BOTH recovery modes, so cache
  // warmth can never distinguish a reopen from an uninterrupted manager.
  s.service = std::make_unique<serve::RouteService>(*s.manager,
                                                    options_.service, now);
  s.burn.reset();
  s.health = ShardHealth::kRecovering;
  s.readmit_at = now + options_.recovering_ticks;
  s.last_heartbeat = now;
  s.last_epoch = s.manager->epoch();
}

void FleetManager::drain_backlog_live(int shard, std::int64_t now) {
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.backlog.empty()) return;
  for (const PendingReport& report : s.backlog) {
    apply_report(s.manager.get(), report);
  }
  s.backlog.clear();
  if (s.manager->has_pending_reports()) open_window(shard, now);
}

void FleetManager::report_node_fault(int shard, NodeId id, std::int64_t now) {
  if (shard < 0 || shard >= shard_count()) {
    throw std::invalid_argument("fleet: bad shard index");
  }
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr || s.hung || s.killed) {
    s.backlog.push_back(PendingReport{false, id, 0, Dir::Pos});
    return;
  }
  s.manager->report_node_fault(id);
  open_window(shard, now);
}

void FleetManager::report_link_fault(int shard, NodeId from, int dim, Dir dir,
                                     std::int64_t now) {
  if (shard < 0 || shard >= shard_count()) {
    throw std::invalid_argument("fleet: bad shard index");
  }
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr || s.hung || s.killed) {
    s.backlog.push_back(PendingReport{true, from, dim, dir});
    return;
  }
  s.manager->report_link_fault(shape_.point(from), dim, dir);
  open_window(shard, now);
}

void FleetManager::kill_shard(int shard, std::int64_t now,
                              std::int64_t downtime) {
  if (shard < 0 || shard >= shard_count()) {
    throw std::invalid_argument("fleet: bad shard index");
  }
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  ++stats_.kills;
  obs::counter("fleet.kills").add();
  s.killed = true;
  s.hung = false;
  s.down_until =
      std::max(s.down_until, now + std::max<std::int64_t>(downtime, 1));
  quarantine(shard, now);
  if (options_.recovery == RecoveryMode::kReopen) {
    // The process is gone: only the StateDir survives. (kLive parks the
    // object instead — the reference arm of the restart-transparency
    // proof; it must behave identically from the outside.)
    s.manager.reset();
  }
}

void FleetManager::hang_shard(int shard, std::int64_t now,
                              std::int64_t duration) {
  if (shard < 0 || shard >= shard_count()) {
    throw std::invalid_argument("fleet: bad shard index");
  }
  ShardState& s = shards_[static_cast<std::size_t>(shard)];
  if (s.killed) return;  // already dead; a hang adds nothing
  ++stats_.hangs;
  obs::counter("fleet.hangs").add();
  s.hung = true;
  s.down_until =
      std::max(s.down_until, now + std::max<std::int64_t>(duration, 1));
}

std::vector<serve::RouteService::Drained> FleetManager::advance(
    std::int64_t now) {
  const int n = shard_count();
  // 1. Chaos lifecycle: kill restarts and hang releases come due.
  for (int i = 0; i < n; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (s.down_until < 0 || now < s.down_until) continue;
    if (s.killed) {
      s.killed = false;
      ++stats_.restarts;
      obs::counter("fleet.restarts").add();
    }
    if (s.hung) {
      s.hung = false;
      // A hang short enough to dodge the heartbeat timeout rides
      // through: the shard resumes where it stood, late reports apply.
      if (s.service != nullptr) drain_backlog_live(i, now);
    }
    s.down_until = -1;
    s.last_heartbeat = now;
  }
  // 2. Heartbeats; a hung shard that exceeds the timeout is quarantined
  // (the only signal the fleet has that a shard stopped making progress).
  for (int i = 0; i < n; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (!s.hung && !s.killed && s.service != nullptr) s.last_heartbeat = now;
    if (s.service != nullptr && s.hung &&
        now - s.last_heartbeat > options_.heartbeat_timeout) {
      ++stats_.heartbeat_timeouts;
      obs::counter("fleet.heartbeat_timeouts").add();
      quarantine(i, now);
    }
  }
  // 3. Burn-driven transitions plus RECOVERING readmission.
  for (int i = 0; i < n; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (s.service == nullptr) continue;
    const double burn = s.burn.burn(options_.availability_objective);
    if (burn >= options_.quarantine_burn) {
      ++stats_.burn_quarantines;
      obs::counter("fleet.burn_quarantines").add();
      quarantine(i, now);
      continue;
    }
    if (s.health == ShardHealth::kServing &&
        burn >= options_.degraded_burn) {
      s.health = ShardHealth::kDegraded;
      ++stats_.degrades;
      obs::counter("fleet.degrades").add();
    } else if (s.health == ShardHealth::kDegraded &&
               burn <= options_.degraded_burn * 0.5) {
      s.health = ShardHealth::kServing;  // hysteresis: recover at half
    } else if (s.health == ShardHealth::kRecovering &&
               now >= s.readmit_at) {
      s.health = ShardHealth::kServing;
      ++stats_.readmissions;
      obs::counter("fleet.readmissions").add();
    }
  }
  // 4. Boot-queue entry, then the single solve+publish token (FIFO). One
  // token for the whole fleet: windows may be OPEN on many shards, but
  // never two shards in the closed (solver) part at once.
  for (int i = 0; i < n; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (s.health == ShardHealth::kQuarantined && !s.hung && !s.killed &&
        s.down_until < 0 && now >= s.cooloff_until && !s.waiting &&
        s.publish_due < 0) {
      s.waiting = true;
      s.wait_since = now;
      s.boot = true;
      token_queue_.push_back(i);
    }
  }
  if (token_holder_ < 0 && !token_queue_.empty()) {
    const int i = token_queue_.front();
    token_queue_.pop_front();
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    s.waiting = false;
    token_holder_ = i;
    s.granted_at = now;
    s.publish_due = now + options_.reconfigure_ticks;
    ++stats_.windows_granted;
    stats_.window_waits += now - s.wait_since;
    obs::counter("fleet.windows_granted").add();
  }
  // 5. The token holder's slot comes due: solve (reconfigure) + publish.
  if (token_holder_ >= 0) {
    ShardState& s = shards_[static_cast<std::size_t>(token_holder_)];
    if (now >= s.publish_due) {
      if (s.boot) {
        boot_shard(token_holder_, now);
      } else {
        if (s.manager->has_pending_reports()) s.manager->reconfigure();
        s.service->publish(now);
        s.last_epoch = s.manager->epoch();
      }
      window_log_.push_back(
          WindowSlot{token_holder_, s.granted_at, now, s.boot});
      s.boot = false;
      s.publish_due = -1;
      token_holder_ = -1;
    }
  }
  // 6. Drain: buffered failover responses first (already recorded at
  // submit time), then each live shard in index order.
  std::vector<serve::RouteService::Drained> out = std::move(pending_drains_);
  pending_drains_.clear();
  for (int i = 0; i < n; ++i) {
    ShardState& s = shards_[static_cast<std::size_t>(i)];
    if (s.service == nullptr || s.hung) continue;
    for (serve::RouteService::Drained& drained : s.service->advance(now)) {
      record_outcome(i, drained.response);
      out.push_back(std::move(drained));
    }
  }
  return out;
}

ShardHealth FleetManager::health(int shard) const {
  return shards_[static_cast<std::size_t>(shard)].health;
}

double FleetManager::burn(int shard) const {
  return shards_[static_cast<std::size_t>(shard)].burn.burn(
      options_.availability_objective);
}

int FleetManager::epoch(int shard) const {
  const ShardState& s = shards_[static_cast<std::size_t>(shard)];
  return s.manager != nullptr ? s.manager->epoch() : s.last_epoch;
}

int FleetManager::serving_shard(std::uint64_t client_id) const {
  return route_for(client_id);
}

const manager::MachineManager* FleetManager::shard_manager(int shard) const {
  return shards_[static_cast<std::size_t>(shard)].manager.get();
}

serve::ServiceStats FleetManager::shard_stats(int shard) const {
  const ShardState& s = shards_[static_cast<std::size_t>(shard)];
  serve::ServiceStats total = s.retired;
  if (s.service != nullptr) serve::accumulate(&total, s.service->stats());
  return total;
}

serve::ServiceStats FleetManager::service_stats() const {
  serve::ServiceStats total;
  for (int i = 0; i < shard_count(); ++i) {
    serve::accumulate(&total, shard_stats(i));
  }
  return total;
}

std::int64_t FleetManager::queue_depth() const {
  std::int64_t total = 0;
  for (const ShardState& shard : shards_) {
    if (shard.service != nullptr) total += shard.service->queue_depth();
  }
  return total;
}

bool FleetManager::quiescent() const {
  if (token_holder_ >= 0 || !token_queue_.empty() || !pending_drains_.empty()) {
    return false;
  }
  for (const ShardState& shard : shards_) {
    if (shard.hung || shard.killed || shard.down_until >= 0) return false;
    // RECOVERING readmits on a bounded timer, so waiting for it keeps
    // the final health states settled (DEGRADED is traffic-driven and
    // may legitimately persist; it serves, so it does not block).
    if (shard.health == ShardHealth::kQuarantined ||
        shard.health == ShardHealth::kRecovering) {
      return false;
    }
    if (shard.service == nullptr) return false;
    if (shard.service->queue_depth() != 0) return false;
    if (shard.service->reconfiguring()) return false;
    if (!shard.backlog.empty()) return false;
  }
  return true;
}

}  // namespace lamb::fleet
