#include "wormhole/network.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "support/env.hpp"

namespace lamb::wormhole {

const char* delivery_outcome_name(DeliveryOutcome outcome) {
  switch (outcome) {
    case DeliveryOutcome::kPending: return "pending";
    case DeliveryOutcome::kDelivered: return "delivered";
    case DeliveryOutcome::kLost: return "lost";
    case DeliveryOutcome::kPoisoned: return "poisoned";
  }
  return "?";
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kCycle: return "cycle";
    case Engine::kEvent: return "event";
  }
  return "?";
}

Engine engine_from_env(Engine fallback) {
  const std::string v = env_string("LAMBMESH_ENGINE", "");
  if (v.empty()) return fallback;
  if (v == "cycle") return Engine::kCycle;
  if (v == "event") return Engine::kEvent;
  throw std::invalid_argument(
      "LAMBMESH_ENGINE: expected 'cycle' or 'event', got '" + v + "'");
}

std::string SimResult::summary() const {
  std::ostringstream os;
  os << "delivered " << delivered << "/" << total_messages << " in " << cycles
     << " cycles";
  if (deadlocked) os << " [DEADLOCK]";
  if (faults_applied > 0) {
    os << " [" << faults_applied << " live faults: " << lost << " lost, "
       << poisoned << " poisoned, " << dead_channels << " channels dead]";
  }
  os << ", throughput " << flit_throughput << " flits/cycle\n";
  if (latency_samples.count() > 0) {
    os << "latency p50 " << latency_samples.quantile(0.50) << " p95 "
       << latency_samples.quantile(0.95) << " p99 "
       << latency_samples.quantile(0.99) << " (mean " << latency.mean()
       << ", max " << latency.max() << ")\n";
    os << "decomposition: queue mean " << queue_cycles.mean()
       << ", stall mean " << stall_cycles.mean() << " cycles\n";
  }
  return os.str();
}

Network::Network(const MeshShape& shape, const FaultSet& faults,
                 SimConfig config)
    : shape_(&shape), faults_(&faults), config_(std::move(config)) {
  if (config_.vcs_per_link < 1 || config_.buffer_flits < 1) {
    throw std::invalid_argument("Network: vcs_per_link and buffer_flits >= 1");
  }
  engine_ = engine_from_env(config_.engine);
  event_mode_ = engine_ == Engine::kEvent;
  const std::int64_t num_links = shape.size() * shape.dim() * 2;
  buffers_.resize(static_cast<std::size_t>(num_links * config_.vcs_per_link));
  link_used_.assign(static_cast<std::size_t>(num_links), 0);
  // Per (link, vc), the buffers_ index: the run epilogue folds VCs back
  // into per-link load, and the telemetry channel series read the same
  // array, with the occupancy mirror, at every window close, so the
  // advance path carries no per-flit telemetry call at all.
  link_flits_.assign(buffers_.size(), 0);
  if (config_.telemetry.enabled) {
    occ_shadow_.assign(buffers_.size(), 0);
    occ_mirror_ = occ_shadow_.data();
    telemetry_ = std::make_unique<obs::Telemetry>(
        shape, config_.vcs_per_link, config_.telemetry, link_flits_.data(),
        occ_mirror_);
  }
  if (!config_.fault_schedule.empty()) {
    pending_faults_ = config_.fault_schedule.events;
    std::stable_sort(pending_faults_.begin(), pending_faults_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.cycle < b.cycle;
                     });
    for (const FaultEvent& ev : pending_faults_) {
      if (ev.node < 0 || ev.node >= shape.size()) {
        throw std::invalid_argument("FaultSchedule: node out of range");
      }
      if (ev.kind == FaultEvent::Kind::kLink &&
          (ev.dim < 0 || ev.dim >= shape.dim())) {
        throw std::invalid_argument("FaultSchedule: dim out of range");
      }
    }
    node_dead_.assign(static_cast<std::size_t>(shape.size()), 0);
    link_dead_.assign(static_cast<std::size_t>(num_links), 0);
  }
}

void Network::submit(Message message) {
  MessageState st;
  st.msg = std::move(message);
  const std::size_t h = st.msg.route.hops.size();
  st.count_at.assign(h, 0);
  st.crossed.assign(h, 0);
  st.nodes.reserve(h + 1);
  st.nodes.push_back(st.msg.route.src);
  Point at = shape_->point(st.msg.route.src);
  for (const Hop& hop : st.msg.route.hops) {
    Point next;
    if (!shape_->neighbor(at, hop.dim, hop.dir, &next)) {
      throw std::invalid_argument("Network::submit: route leaves the mesh");
    }
    at = next;
    st.nodes.push_back(shape_->index(at));
  }
  st.flits_at_source = st.msg.length_flits;
  messages_.push_back(std::move(st));
}

std::int64_t Network::buffer_index(NodeId from, const Hop& hop) const {
  const LinkId link = shape_->link_id(from, hop.dim, hop.dir);
  return link * config_.vcs_per_link + (hop.vc % config_.vcs_per_link);
}

NodeId Network::node_before_hop(const MessageState& st, int p) const {
  return st.nodes[static_cast<std::size_t>(p)];
}

Network::Advance Network::try_advance(MessageState& st, int p) {
  const std::int64_t m = &st - messages_.data();
  const int q = p + 1;  // hop to traverse
  assert(q >= 0 && q < static_cast<int>(st.msg.route.hops.size()));
  const Hop& hop = st.msg.route.hops[static_cast<std::size_t>(q)];
  const NodeId from = node_before_hop(st, q);
  const LinkId link = shape_->link_id(from, hop.dim, hop.dir);
  if (link_used_[static_cast<std::size_t>(link)]) {
    ++stall_link_busy_;
    return Advance::kLinkBusy;
  }
  const std::int64_t target_index = buffer_index(from, hop);
  Buffer& tb = buffers_[static_cast<std::size_t>(target_index)];
  if (tb.owner != m) {
    // Only the head flit may allocate a fresh virtual channel.
    if (tb.owner >= 0 || st.crossed[static_cast<std::size_t>(q)] != 0) {
      ++stall_vc_busy_;
      blocked_buffer_ = target_index;
      return Advance::kVcBusy;
    }
  }
  if (tb.occupancy >= config_.buffer_flits) {
    ++stall_credit_;
    blocked_buffer_ = target_index;
    return Advance::kCredit;
  }

  // Commit the move.
  const bool acquired = tb.owner != m;  // head allocating a fresh channel
  std::int64_t released_buffer = -1;
  if (p >= 0) {
    const Hop& prev = st.msg.route.hops[static_cast<std::size_t>(p)];
    const NodeId prev_from = node_before_hop(st, p);
    const std::int64_t prev_index = buffer_index(prev_from, prev);
    Buffer& sb = buffers_[static_cast<std::size_t>(prev_index)];
    --sb.occupancy;
    mirror_occupancy(prev_index, sb.occupancy);
    ++sb.passed;
    --st.count_at[static_cast<std::size_t>(p)];
    if (sb.passed == st.msg.length_flits) {
      assert(sb.occupancy == 0);
      sb.owner = -1;  // tail released the channel
      sb.passed = 0;
      released_buffer = prev_index;
    }
    // The credit return (and possibly the release) is what the worms
    // sleeping on this buffer were waiting for.
    if (event_mode_) wake_buffer_waiters(prev_index);
  } else {
    --st.flits_at_source;
    if (st.start_cycle < 0) st.start_cycle = cycle_;
    // Endpoint hook inline: a bare counter bump on a node-indexed array
    // is cheaper than routing every source flit through the outlined
    // commit below.
    if (telemetry_) telemetry_->on_inject_flit(st.msg.route.src);
  }
  tb.owner = m;
  ++tb.occupancy;
  mirror_occupancy(target_index, tb.occupancy);
  ++st.count_at[static_cast<std::size_t>(q)];
  ++st.crossed[static_cast<std::size_t>(q)];
  link_used_[static_cast<std::size_t>(link)] = 1;
  if (event_mode_) touched_links_.push_back(link);
  ++link_flits_[static_cast<std::size_t>(target_index)];
  moved_this_cycle_ = true;
  // Channel flit counts flow to the telemetry series via the link_flits_
  // window deltas, and endpoint counters bump inline above, so the
  // outlined commit only runs when a lifecycle event fires: first flit
  // of a message leaving its source, a channel acquisition, or a
  // release. Bitwise | keeps the common mid-route move at a single
  // (rarely taken) branch instead of a short-circuit cascade.
  if (telemetry_ &&
      (static_cast<int>(p < 0 && st.flits_at_source ==
                                     st.msg.length_flits - 1) |
       static_cast<int>(acquired) |
       static_cast<int>(released_buffer >= 0)) != 0) {
    commit_advance_telemetry(st, q, p, acquired, released_buffer,
                             target_index);
  }
  return Advance::kMoved;
}

__attribute__((noinline)) void Network::commit_advance_telemetry(
    const MessageState& st, int q, std::int64_t p, bool acquired,
    std::int64_t released_buffer, std::int64_t target_index) {
  if (p < 0 && cycle_ == st.start_cycle &&
      st.flits_at_source == st.msg.length_flits - 1) {
    telemetry_->on_event(obs::MsgEvent::kInject, st.msg.id, cycle_);
  }
  if (acquired) {
    telemetry_->on_event(obs::MsgEvent::kAcquire, st.msg.id, cycle_,
                         target_index);
    const Hop& hop = st.msg.route.hops[static_cast<std::size_t>(q)];
    if (q > 0 &&
        st.msg.route.hops[static_cast<std::size_t>(q - 1)].vc != hop.vc) {
      telemetry_->on_event(obs::MsgEvent::kRoundSwitch, st.msg.id, cycle_,
                           target_index);
    }
  }
  if (released_buffer >= 0) {
    telemetry_->on_event(obs::MsgEvent::kRelease, st.msg.id, cycle_,
                         released_buffer);
  }
}

__attribute__((noinline)) void Network::commit_eject_telemetry(
    const MessageState& st, std::int64_t index, bool released) {
  if (released) {
    telemetry_->on_event(obs::MsgEvent::kRelease, st.msg.id, cycle_, index);
  }
}

__attribute__((noinline)) void Network::record_delivery(
    const MessageState& st, SimResult* result) {
  const double lat =
      static_cast<double>(st.finish_cycle - st.msg.inject_cycle);
  result->latency.add(lat);
  result->latency_samples.add(lat);
  obs::LatencyRecord record;
  record.msg = st.msg.id;
  record.inject = st.msg.inject_cycle;
  record.start = st.start_cycle >= 0 ? st.start_cycle : st.finish_cycle;
  record.finish = st.finish_cycle;
  record.hops = static_cast<std::int32_t>(st.msg.route.hops.size());
  record.flits = st.msg.length_flits;
  result->queue_cycles.add(static_cast<double>(record.queue_cycles()));
  result->stall_cycles.add(static_cast<double>(record.stall_cycles()));
  if (telemetry_) {
    telemetry_->on_event(obs::MsgEvent::kEject, st.msg.id, st.finish_cycle);
    telemetry_->on_delivered(record);
  }
}

void Network::step_message(std::int64_t m, SimResult* result) {
  MessageState& st = messages_[static_cast<std::size_t>(m)];
  if (st.finished() || st.msg.inject_cycle > cycle_) return;
  if (st.msg.after >= 0 &&
      !messages_[static_cast<std::size_t>(st.msg.after)].done()) {
    // Dependency not yet delivered: unblocks only through that message's
    // progress, so the event engine parks this one on its delivery list.
    if (event_mode_) sleep_on_dep(m, st.msg.after);
    return;
  }
  st.started = true;
  const int h = static_cast<int>(st.msg.route.hops.size());

  if (h == 0) {  // src == dst: deliver immediately
    st.ejected = st.msg.length_flits;
    st.start_cycle = cycle_;
    st.finish_cycle = cycle_;
    st.outcome = DeliveryOutcome::kDelivered;
    flits_delivered_ += st.msg.length_flits;
    ++delivered_;
    ++finished_;
    moved_this_cycle_ = true;
    // Not recorded in the latency stats: the message never touched
    // the network (matches the pre-telemetry accounting).
    if (event_mode_) {
      clear_awake(m);
      wake_dep_waiters(m);
    }
    return;
  }

  bool advanced = false;   // some flit of this worm moved this turn
  bool link_wait = false;  // an attempt lost only the physical link
  // Eject one flit from the final buffer, then pipeline the worm
  // forward one position per buffer, head first.
  if (st.count_at[static_cast<std::size_t>(h - 1)] > 0) {
    const Hop& last = st.msg.route.hops[static_cast<std::size_t>(h - 1)];
    const NodeId from = node_before_hop(st, h - 1);
    const std::int64_t index = buffer_index(from, last);
    Buffer& b = buffers_[static_cast<std::size_t>(index)];
    --b.occupancy;
    mirror_occupancy(index, b.occupancy);
    ++b.passed;
    --st.count_at[static_cast<std::size_t>(h - 1)];
    bool released = false;
    if (b.passed == st.msg.length_flits) {
      b.owner = -1;
      b.passed = 0;
      released = true;
    }
    ++st.ejected;
    ++flits_delivered_;
    moved_this_cycle_ = true;
    advanced = true;
    if (event_mode_) wake_buffer_waiters(index);
    if (telemetry_) {
      telemetry_->on_eject_flit(st.msg.route.dst);
      if (released) commit_eject_telemetry(st, index, true);
    }
    if (st.done()) {
      st.finish_cycle = cycle_;
      st.outcome = DeliveryOutcome::kDelivered;
      ++delivered_;
      ++finished_;
      record_delivery(st, result);
      if (event_mode_) {
        clear_awake(m);
        wake_dep_waiters(m);
      }
      return;
    }
  }
  std::int64_t head_block = -1;  // buffer the leading flit is stuck on
  bool head_attempted = false;
  for (int p = h - 2; p >= -1; --p) {
    const bool have_flit =
        p >= 0 ? st.count_at[static_cast<std::size_t>(p)] > 0
               : st.flits_at_source > 0;
    if (!have_flit) continue;
    const Advance a = try_advance(st, p);
    if (a == Advance::kMoved) {
      advanced = true;
    } else if (a == Advance::kLinkBusy) {
      link_wait = true;
    } else if (!head_attempted) {
      head_block = blocked_buffer_;
    }
    head_attempted = true;
  }
  // Sleep rule: with no motion and no transient link contention, the
  // whole worm is backed up behind its leading flit's buffer — nothing
  // changes until that buffer returns a credit or releases its channel.
  // (Body positions can only be stuck on buffers this worm itself owns.)
  if (event_mode_ && !advanced && !link_wait && head_block >= 0) {
    sleep_on_buffer(m, head_block);
  }
}

bool Network::try_fast_forward(std::int64_t* stagnant) {
  // Idle because the next injections are in the future, not because of
  // blocking: fast-forward instead of tripping the watchdog.
  std::int64_t next_inject = config_.max_cycles;
  bool in_flight = false;
  for (const MessageState& st : messages_) {
    if (st.finished()) continue;
    if (st.msg.after >= 0 &&
        !messages_[static_cast<std::size_t>(st.msg.after)].done()) {
      // Dependency-blocked counts as in flight: it can only unblock
      // through progress elsewhere, never through time alone.
      in_flight = true;
    } else if (st.msg.inject_cycle > cycle_) {
      next_inject = std::min(next_inject, st.msg.inject_cycle);
    } else {
      in_flight = true;
    }
  }
  if (in_flight || next_inject <= cycle_) return false;
  // Never jump past a scheduled fault: the kill must land at its exact
  // cycle so queued messages die when the hardware does.
  if (next_fault_ < pending_faults_.size()) {
    next_inject = std::min(
        next_inject, std::max(pending_faults_[next_fault_].cycle, cycle_));
  }
  cycle_ = next_inject;
  *stagnant = 0;
  return true;
}

void Network::wake_message(std::int64_t m) {
  MessageState& st = messages_[static_cast<std::size_t>(m)];
  st.next_waiter = -1;
  st.asleep_on_buffer = -1;
  st.asleep_on_dep = -1;
  if (st.finished() || awake_[static_cast<std::size_t>(m)]) return;
  awake_[static_cast<std::size_t>(m)] = 1;
  ++awake_count_;
}

void Network::wake_buffer_waiters(std::int64_t buffer) {
  std::int64_t m = buffers_[static_cast<std::size_t>(buffer)].waiter_head;
  if (m < 0) return;
  buffers_[static_cast<std::size_t>(buffer)].waiter_head = -1;
  while (m >= 0) {
    const std::int64_t next = messages_[static_cast<std::size_t>(m)].next_waiter;
    wake_message(m);
    m = next;
  }
}

void Network::wake_dep_waiters(std::int64_t m) {
  std::int64_t w = messages_[static_cast<std::size_t>(m)].dep_waiter_head;
  if (w < 0) return;
  messages_[static_cast<std::size_t>(m)].dep_waiter_head = -1;
  while (w >= 0) {
    const std::int64_t next = messages_[static_cast<std::size_t>(w)].next_waiter;
    wake_message(w);
    w = next;
  }
}

void Network::wake_all_sleepers() {
  // Fault drains free buffers and resolve dependencies wholesale; rather
  // than tracing which sleeper each drain unblocks, wake everyone and let
  // the retries re-sleep. Faults are rare, so O(messages) is fine.
  for (std::size_t m = 0; m < messages_.size(); ++m) {
    MessageState& st = messages_[m];
    if (st.asleep_on_buffer < 0 && st.asleep_on_dep < 0) continue;
    if (st.asleep_on_buffer >= 0) {
      buffers_[static_cast<std::size_t>(st.asleep_on_buffer)].waiter_head = -1;
    }
    if (st.asleep_on_dep >= 0) {
      messages_[static_cast<std::size_t>(st.asleep_on_dep)].dep_waiter_head =
          -1;
    }
    st.asleep_on_buffer = -1;
    st.asleep_on_dep = -1;
    st.next_waiter = -1;
    // A sleeper drained by the fault is finished: unregister, don't wake.
    if (!st.finished() && !awake_[m]) {
      awake_[m] = 1;
      ++awake_count_;
    }
  }
}

void Network::sleep_on_buffer(std::int64_t m, std::int64_t buffer) {
  MessageState& st = messages_[static_cast<std::size_t>(m)];
  awake_[static_cast<std::size_t>(m)] = 0;
  --awake_count_;
  st.asleep_on_buffer = buffer;
  st.next_waiter = buffers_[static_cast<std::size_t>(buffer)].waiter_head;
  buffers_[static_cast<std::size_t>(buffer)].waiter_head = m;
}

void Network::sleep_on_dep(std::int64_t m, std::int64_t dep) {
  MessageState& st = messages_[static_cast<std::size_t>(m)];
  awake_[static_cast<std::size_t>(m)] = 0;
  --awake_count_;
  st.asleep_on_dep = dep;
  st.next_waiter = messages_[static_cast<std::size_t>(dep)].dep_waiter_head;
  messages_[static_cast<std::size_t>(dep)].dep_waiter_head = m;
}

void Network::clear_awake(std::int64_t m) {
  if (awake_[static_cast<std::size_t>(m)]) {
    awake_[static_cast<std::size_t>(m)] = 0;
    --awake_count_;
  }
}

SimResult Network::run() {
  obs::Span span("sim.run", "wormhole");
  // Streak lengths of motionless cycles that ended with motion again: the
  // watchdog near-misses (a gap of deadlock_threshold trips the watchdog).
  static obs::Histogram& stall_gaps = obs::histogram(
      "sim.stall_gap_cycles", obs::Histogram::exponential_bounds(1, 2, 16));
  SimResult result;
  result.engine = engine_;
  result.total_messages = static_cast<std::int64_t>(messages_.size());
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.record(obs::FlightEventType::kRunBegin, 0, result.total_messages,
                  config_.max_cycles);
  for (const MessageState& st : messages_) {
    result.hops.add(static_cast<double>(st.msg.route.length()));
    result.turns.add(static_cast<double>(st.msg.route.turns()));
  }

  // The watchdog fires once per run, `watchdog_cycles` motionless cycles
  // into a streak (default: just before the deadlock threshold trips).
  // Precedence rule (see SimConfig::deadlock_threshold): the trigger is
  // clamped to the deadlock threshold, so the snapshot is always taken
  // no later than the cycle that declares deadlock — the check below
  // runs before the deadlock check of the same iteration.
  const std::int64_t watchdog_at =
      telemetry_ && config_.telemetry.watchdog
          ? std::min<std::int64_t>(config_.telemetry.watchdog_cycles > 0
                                       ? config_.telemetry.watchdog_cycles
                                       : config_.deadlock_threshold,
                                   config_.deadlock_threshold)
          : config_.max_cycles + 1;
  bool watchdog_fired = false;

  std::int64_t stagnant = 0;
  delivered_ = 0;
  flits_delivered_ = 0;
  cycle_ = 0;
  finished_ = 0;
  const std::int64_t m_count = static_cast<std::int64_t>(messages_.size());

  // End-of-cycle bookkeeping shared by both engines: stagnation streaks,
  // the telemetry window/watchdog, and the deadlock declaration. Returns
  // true when the run must stop (deadlock).
  auto cycle_tail = [&]() -> bool {
    if (moved_this_cycle_) {
      if (stagnant > 0) stall_gaps.observe(static_cast<double>(stagnant));
      stagnant = 0;
    } else {
      ++stagnant;
    }
    if (telemetry_) {
      telemetry_->end_window(cycle_);
      if (stagnant >= watchdog_at && !watchdog_fired) {
        watchdog_fired = true;
        obs::StallReport report = build_stall_report(stagnant);
        std::fputs(report.render(*shape_).c_str(), stderr);
        result.stall_report =
            std::make_shared<const obs::StallReport>(report);
        telemetry_->set_stall_report(std::move(report));
        recorder.record(obs::FlightEventType::kWatchdog, 0, stagnant,
                        cycle_);
        recorder.dump_auto(obs::DumpReason::kWatchdog);
      }
    }
    if (stagnant >= config_.deadlock_threshold) {
      result.deadlocked = true;
      recorder.record(obs::FlightEventType::kDeadlock, 0, stagnant, cycle_);
      recorder.dump_auto(obs::DumpReason::kDeadlock);
      return true;
    }
    return false;
  };

  if (engine_ == Engine::kCycle) {
    while (finished_ < result.total_messages && cycle_ < config_.max_cycles) {
      moved_this_cycle_ = false;
      if (next_fault_ < pending_faults_.size() &&
          pending_faults_[next_fault_].cycle <= cycle_) {
        apply_due_faults(&result);
        if (finished_ >= result.total_messages) break;
      }
      std::fill(link_used_.begin(), link_used_.end(), 0);
      // Rotation scan starting at cycle_ % m_count; increment-wrap rather
      // than a per-step modulo (identical order, no division).
      std::int64_t idx = m_count > 0 ? cycle_ % m_count : 0;
      for (std::int64_t off = 0; off < m_count; ++off) {
        step_message(idx, &result);
        if (++idx == m_count) idx = 0;
      }
      ++cycle_;
      if (!moved_this_cycle_ && try_fast_forward(&stagnant)) continue;
      if (cycle_tail()) break;
    }
  } else {
    // Event engine. Every injection and every scheduled kill is a heap
    // event; between events, only awake messages (those whose worms can
    // still make progress) are stepped, in the same rotated order the
    // cycle engine uses. A worm whose head is blocked sleeps on the
    // refusing buffer and is woken by its credit return or release, so a
    // cycle with nothing awake costs O(1) plus the shared fast-forward.
    awake_.assign(static_cast<std::size_t>(m_count), 0);
    awake_count_ = 0;
    events_.clear();
    touched_links_.clear();
    for (std::int64_t m = 0; m < m_count; ++m) {
      events_.push(
          std::max<std::int64_t>(0, messages_[static_cast<std::size_t>(m)]
                                        .msg.inject_cycle),
          EventKind::kInject, m);
    }
    for (std::size_t f = next_fault_; f < pending_faults_.size(); ++f) {
      events_.push(pending_faults_[f].cycle, EventKind::kFault,
                   static_cast<std::int64_t>(f));
    }
    while (finished_ < result.total_messages && cycle_ < config_.max_cycles) {
      moved_this_cycle_ = false;
      bool fault_due = false;
      while (!events_.empty() && events_.top().cycle <= cycle_) {
        const Event ev = events_.pop();
        if (ev.kind == EventKind::kInject) {
          wake_message(ev.payload);
        } else {
          fault_due = true;
        }
      }
      if (fault_due) {
        apply_due_faults(&result);  // wakes every sleeper afterwards
        if (finished_ >= result.total_messages) break;
      }
      if (awake_count_ > 0) {
        // Sparse clear: only links actually used last stepped cycle.
        for (const LinkId link : touched_links_) {
          link_used_[static_cast<std::size_t>(link)] = 0;
        }
        touched_links_.clear();
        // Same rotation order as the cycle engine, expressed as two
        // linear passes [start, m) then [0, start). At 8-aligned offsets
        // a whole word of the awake map is tested at once; an all-zero
        // word skips eight sleepers without touching their bytes. A wake
        // posted by an earlier step of this same scan is written before
        // its word is read, so the word test never hides it.
        const std::int64_t start = cycle_ % m_count;
        const char* aw = awake_.data();
        const auto scan = [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t i = lo;
          while (i < hi) {
            if ((i & 7) == 0 && i + 8 <= hi) {
              std::uint64_t word;
              std::memcpy(&word, aw + i, sizeof(word));
              if (word == 0) {
                i += 8;
                continue;
              }
            }
            if (aw[i]) step_message(i, &result);
            ++i;
          }
        };
        scan(start, m_count);
        scan(0, start);
      }
      ++cycle_;
      if (!moved_this_cycle_ && try_fast_forward(&stagnant)) continue;
      if (cycle_tail()) break;
    }
  }
  // Flush the terminal streak too — a deadlocked run's final gap (the
  // streak that tripped the watchdog) would otherwise never be observed.
  if (stagnant > 0) stall_gaps.observe(static_cast<double>(stagnant));

  result.delivered = delivered_;
  result.cycles = cycle_;
  // Per-message outcomes, skipped on the healthy no-schedule fast path
  // so the common case allocates nothing.
  if (!pending_faults_.empty() || delivered_ != result.total_messages) {
    result.outcomes.reserve(messages_.size());
    for (const MessageState& st : messages_) {
      result.outcomes.push_back(st.outcome);
    }
  }
  for (std::size_t i = 0; i < link_flits_.size();
       i += static_cast<std::size_t>(config_.vcs_per_link)) {
    std::int64_t flits = 0;  // per directed physical link, summed over VCs
    for (int vc = 0; vc < config_.vcs_per_link; ++vc) {
      flits += link_flits_[i + static_cast<std::size_t>(vc)];
    }
    if (flits > 0) result.link_load.add(static_cast<double>(flits));
    result.flits_moved += flits;
  }
  result.flit_throughput =
      cycle_ > 0 ? static_cast<double>(flits_delivered_) /
                       static_cast<double>(cycle_)
                 : 0.0;

  if (telemetry_) {
    telemetry_->end_window(cycle_, /*final=*/true);
    // A failed write reports itself on stderr; the run's result stands.
    if (!config_.telemetry.dump.empty()) telemetry_->write(cycle_);
  }

  if (obs::MetricsRegistry::global().enabled()) {
    static obs::Histogram& lat_total = obs::histogram(
        "sim.latency.total_cycles",
        obs::Histogram::exponential_bounds(1, 2, 20));
    static obs::Histogram& lat_queue = obs::histogram(
        "sim.latency.queue_cycles",
        obs::Histogram::exponential_bounds(1, 2, 20));
    static obs::Histogram& lat_stall = obs::histogram(
        "sim.latency.stall_cycles",
        obs::Histogram::exponential_bounds(1, 2, 20));
    for (const MessageState& st : messages_) {
      if (st.finish_cycle < 0 || st.msg.route.hops.empty()) continue;
      lat_total.observe(
          static_cast<double>(st.finish_cycle - st.msg.inject_cycle));
      lat_queue.observe(
          static_cast<double>(st.start_cycle - st.msg.inject_cycle));
      const std::int64_t transit =
          static_cast<std::int64_t>(st.msg.route.hops.size()) +
          st.msg.length_flits - 1;
      lat_stall.observe(
          static_cast<double>(st.finish_cycle - st.start_cycle - transit));
    }
    obs::counter("sim.runs").add();
    obs::counter("sim.cycles").add(cycle_);
    obs::counter("sim.flits_moved").add(result.flits_moved);
    obs::counter("sim.messages_delivered").add(delivered_);
    obs::counter("sim.stall.link_busy").add(stall_link_busy_);
    obs::counter("sim.stall.vc_busy").add(stall_vc_busy_);
    obs::counter("sim.stall.credit").add(stall_credit_);
    if (result.deadlocked) obs::counter("sim.deadlocks").add();
    if (result.faults_applied > 0) {
      obs::counter("sim.faults_applied").add(result.faults_applied);
      obs::counter("sim.messages_lost").add(result.lost);
      obs::counter("sim.messages_poisoned").add(result.poisoned);
      obs::counter("sim.dead_channels").add(result.dead_channels);
    }
  }
  span.arg("messages", static_cast<double>(result.total_messages));
  span.arg("cycles", static_cast<double>(cycle_));
  recorder.record(obs::FlightEventType::kRunEnd,
                  result.deadlocked ? 1 : 0, cycle_, delivered_);
  return result;
}

std::int64_t Network::apply_due_faults(SimResult* result) {
  bool applied = false;
  while (next_fault_ < pending_faults_.size() &&
         pending_faults_[next_fault_].cycle <= cycle_) {
    const FaultEvent& ev = pending_faults_[next_fault_++];
    auto kill_directed = [&](NodeId from, int dim, Dir dir) -> bool {
      Point to;
      if (!shape_->neighbor(shape_->point(from), dim, dir, &to)) return false;
      char& dead =
          link_dead_[static_cast<std::size_t>(shape_->link_id(from, dim, dir))];
      if (dead) return false;
      dead = 1;
      ++result->dead_channels;
      return true;
    };
    // An event that changes nothing — the node is already dead, or every
    // directed channel of the link already is — must not count: schedules
    // can legitimately carry duplicates (overlapping storms, replayed
    // windows), and double-counting them in applied_faults used to inflate
    // faults_applied and feed spurious re-reports to the recovery loop.
    bool effective = false;
    if (ev.kind == FaultEvent::Kind::kNode) {
      char& dead = node_dead_[static_cast<std::size_t>(ev.node)];
      if (!dead) {
        dead = 1;
        effective = true;
        // Every incident directed link dies with the node.
        const Point p = shape_->point(ev.node);
        for (int d = 0; d < shape_->dim(); ++d) {
          for (Dir dir : {Dir::Neg, Dir::Pos}) {
            kill_directed(ev.node, d, dir);
            Point nb;
            if (shape_->neighbor(p, d, dir, &nb)) {
              kill_directed(shape_->index(nb), d, opposite(dir));
            }
          }
        }
      }
    } else {
      if (kill_directed(ev.node, ev.dim, ev.dir)) effective = true;
      Point nb;
      if (shape_->neighbor(shape_->point(ev.node), ev.dim, ev.dir, &nb)) {
        if (kill_directed(shape_->index(nb), ev.dim, opposite(ev.dir))) {
          effective = true;
        }
      }
    }
    if (!effective) continue;
    applied = true;
    ++result->faults_applied;
    result->applied_faults.push_back(ev);
    obs::FlightRecorder::global().record(
        obs::FlightEventType::kFaultApplied,
        ev.kind == FaultEvent::Kind::kNode ? 0 : 1, ev.node,
        ev.kind == FaultEvent::Kind::kNode
            ? 0
            : ev.dim * 2 + (ev.dir == Dir::Pos ? 0 : 1));
  }
  if (!applied) return 0;
  // A state change happened even if no flit moves this cycle: the kill
  // (and the drains below) must reset the stagnation streak, otherwise
  // the watchdog could blame a fault for a deadlock.
  moved_this_cycle_ = true;

  std::int64_t resolved = 0;
  for (MessageState& st : messages_) {
    if (st.finished()) continue;
    if (route_poisoned(st)) {
      drain_message(st, result);
      ++resolved;
    }
  }
  // Cascade: a message gated on a dependency that will never deliver can
  // never inject. Fixpoint loop handles chains in any submission order.
  bool changed = true;
  while (changed) {
    changed = false;
    for (MessageState& st : messages_) {
      if (st.finished() || st.msg.after < 0) continue;
      const MessageState& dep =
          messages_[static_cast<std::size_t>(st.msg.after)];
      if (dep.finished() && dep.outcome != DeliveryOutcome::kDelivered) {
        drain_message(st, result);
        ++resolved;
        changed = true;
      }
    }
  }
  // The drains released buffers and resolved dependencies in bulk; give
  // every sleeping worm a retry rather than tracing exact causality.
  if (event_mode_) wake_all_sleepers();
  return resolved;
}

bool Network::route_poisoned(const MessageState& st) const {
  const Route& route = st.msg.route;
  if (st.flits_at_source > 0 &&
      node_dead_[static_cast<std::size_t>(route.src)]) {
    return true;
  }
  if (node_dead_[static_cast<std::size_t>(route.dst)]) return true;
  // Any hop not yet fully crossed that uses a dead channel or touches a
  // dead node kills the whole worm; hops every flit has already crossed
  // are behind the tail and harmless.
  for (std::size_t q = 0; q < route.hops.size(); ++q) {
    if (st.crossed[q] >= st.msg.length_flits) continue;
    const Hop& hop = route.hops[q];
    const NodeId at_id = st.nodes[q];
    const NodeId next_id = st.nodes[q + 1];
    if (node_dead_[static_cast<std::size_t>(at_id)] ||
        node_dead_[static_cast<std::size_t>(next_id)] ||
        link_dead_[static_cast<std::size_t>(
            shape_->link_id(at_id, hop.dim, hop.dir))]) {
      return true;
    }
  }
  return false;
}

void Network::drain_message(MessageState& st, SimResult* result) {
  const std::int64_t m = &st - messages_.data();
  // Poisoned iff some flit already entered the network; a message still
  // sitting whole in its source queue (or gated on a dead dependency) is
  // merely lost.
  const bool in_flight = st.start_cycle >= 0;
  for (std::size_t p = 0; p < st.msg.route.hops.size(); ++p) {
    const Hop& hop = st.msg.route.hops[p];
    const NodeId from = node_before_hop(st, static_cast<int>(p));
    const std::int64_t index = buffer_index(from, hop);
    Buffer& b = buffers_[static_cast<std::size_t>(index)];
    if (b.owner == m) {
      b.owner = -1;
      b.occupancy = 0;
      mirror_occupancy(index, 0);
      b.passed = 0;
    }
    st.count_at[p] = 0;
  }
  st.flits_at_source = 0;
  st.outcome =
      in_flight ? DeliveryOutcome::kPoisoned : DeliveryOutcome::kLost;
  ++(in_flight ? result->poisoned : result->lost);
  ++finished_;
  // A drained message needs no further turns; if it was asleep, the
  // wake_all_sleepers pass after fault application unregisters it.
  if (event_mode_) clear_awake(m);
  if (telemetry_) {
    telemetry_->on_event(obs::MsgEvent::kPoison, st.msg.id, cycle_);
  }
}

obs::StallReport Network::build_stall_report(std::int64_t stagnant) const {
  obs::StallReport report;
  report.cycle = cycle_;
  report.stalled_cycles = stagnant;
  const std::int64_t n = static_cast<std::int64_t>(messages_.size());
  // Wait-for graph over message indices. Each blocked message waits on at
  // most one channel, so the graph is functional and any cycle is simple.
  std::vector<std::int64_t> waits_on(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> edge_at(static_cast<std::size_t>(n), -1);
  for (std::int64_t m = 0; m < n; ++m) {
    const MessageState& st = messages_[static_cast<std::size_t>(m)];
    if (st.finished()) continue;
    if (st.msg.inject_cycle > cycle_ ||
        (st.msg.after >= 0 &&
         !messages_[static_cast<std::size_t>(st.msg.after)].done())) {
      ++report.waiting_injection;
      continue;
    }
    const int h = static_cast<int>(st.msg.route.hops.size());
    if (h == 0) continue;
    int head = -1;  // furthest occupied position; -1: all flits at source
    for (int p = h - 1; p >= 0; --p) {
      if (st.count_at[static_cast<std::size_t>(p)] > 0) {
        head = p;
        break;
      }
    }
    // Heads in the final buffer eject unconditionally and so never block.
    if (head == h - 1) continue;
    if (head < 0 && st.flits_at_source == 0) continue;
    const int q = head + 1;  // the hop the head cannot take
    const Hop& hop = st.msg.route.hops[static_cast<std::size_t>(q)];
    const NodeId from = node_before_hop(st, q);
    const Buffer& tb =
        buffers_[static_cast<std::size_t>(buffer_index(from, hop))];
    obs::WaitEdge edge;
    edge.waiter = st.msg.id;
    edge.link = shape_->link_id(from, hop.dim, hop.dir);
    edge.vc = hop.vc % config_.vcs_per_link;
    edge.at = from;
    if (tb.owner != m &&
        (tb.owner >= 0 || st.crossed[static_cast<std::size_t>(q)] != 0)) {
      edge.reason = "vc_busy";
    } else if (tb.occupancy >= config_.buffer_flits) {
      edge.reason = "credit";
    } else {
      // Only transiently blocked (the physical link was taken this
      // cycle); cannot be the standing cause of a stall.
      edge.reason = "link_busy";
    }
    if (tb.owner >= 0) {
      edge.holder = messages_[static_cast<std::size_t>(tb.owner)].msg.id;
      if (tb.owner != m) waits_on[static_cast<std::size_t>(m)] = tb.owner;
    }
    edge_at[static_cast<std::size_t>(m)] =
        static_cast<std::int64_t>(report.edges.size());
    report.edges.push_back(edge);
  }

  // Find one wait-for cycle (0: unseen, 1: on current walk, 2: done).
  std::vector<char> state(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> cycle_members;
  for (std::int64_t m = 0; m < n && cycle_members.empty(); ++m) {
    if (state[static_cast<std::size_t>(m)] != 0) continue;
    std::vector<std::int64_t> path;
    std::int64_t cur = m;
    while (cur >= 0 && state[static_cast<std::size_t>(cur)] == 0) {
      state[static_cast<std::size_t>(cur)] = 1;
      path.push_back(cur);
      cur = waits_on[static_cast<std::size_t>(cur)];
    }
    if (cur >= 0 && state[static_cast<std::size_t>(cur)] == 1) {
      const auto it = std::find(path.begin(), path.end(), cur);
      cycle_members.assign(it, path.end());
    }
    for (const std::int64_t v : path) state[static_cast<std::size_t>(v)] = 2;
  }
  for (const std::int64_t v : cycle_members) {
    report.cycle_msgs.push_back(
        messages_[static_cast<std::size_t>(v)].msg.id);
    if (edge_at[static_cast<std::size_t>(v)] >= 0) {
      report.edges[static_cast<std::size_t>(
                       edge_at[static_cast<std::size_t>(v)])].on_cycle = true;
    }
  }
  return report;
}

}  // namespace lamb::wormhole
