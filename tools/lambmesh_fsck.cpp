// lambmesh_fsck — inspect and repair a durable state directory
// (docs/RECOVERY.md "Durability"). Three subcommands:
//
//   verify <dir>   read-only health report and the repairs recovery
//                  would make; exit 0 iff recoverable
//   dump <dir>     verify + print the machine state of the snapshot
//                  recovery loads
//   compact <dir>  full recovery (quarantines corrupt files, truncates a
//                  torn journal tail) followed by a fresh snapshot
//
// verify/dump never modify the directory: they print the survey that
// StateDir::recover() (so MachineManager::open()) carries out, and
// compact performs exactly those repairs.
//
// verify/dump also accept a flight-recorder artifact (a LAMBRING live
// ring or a LAMBFREC sealed dump, see obs/recorder.hpp) instead of a
// state directory — the magic is sniffed; tools/lambmesh_blackbox is
// the full-featured decoder, this is the health check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "io/binary_format.hpp"
#include "io/cli_args.hpp"
#include "io/durable.hpp"
#include "io/recorder_codec.hpp"
#include "manager/machine_manager.hpp"

namespace {

using lamb::io::LoadError;
using lamb::io::StateDir;

constexpr lamb::io::Command kCommands[] = {
    {"verify", "read-only health report; exit 0 iff recoverable"},
    {"dump", "verify + print the machine state recovery loads"},
    {"compact", "full recovery (repairs) followed by a fresh snapshot"},
};

constexpr lamb::io::Flag kFlags[] = {
    {"", "DIR", lamb::io::kAllCommands,
     "state directory, or a flight-recorder file (verify, dump)"},
};

int cmd_verify(const std::string& dir, bool dump) {
  const StateDir::Scan scan = StateDir::scan(
      dir, [](std::string_view payload, LoadError* err) {
        lamb::manager::MachineState state;
        *err = lamb::manager::decode_machine_state(payload, &state);
        return err->ok();
      });
  std::printf("state directory: %s\n", dir.c_str());
  if (scan.snapshots.empty()) {
    std::printf("snapshots: none\n");
  }
  for (const auto& snap : scan.snapshots) {
    std::printf("snapshot %s (seq %llu, %llu bytes): %s\n",
                snap.name.c_str(),
                static_cast<unsigned long long>(snap.seq),
                static_cast<unsigned long long>(snap.bytes),
                snap.error.ok() ? "ok" : snap.error.to_string().c_str());
  }
  if (!scan.journal_present) {
    std::printf("journal: none\n");
  } else if (!scan.journal_header.ok()) {
    std::printf("journal header: %s\n",
                scan.journal_header.to_string().c_str());
  } else {
    std::printf("journal: bound to seq %llu\n",
                static_cast<unsigned long long>(scan.journal_bound_seq));
  }
  for (const auto& name : scan.quarantine_files) {
    std::printf("quarantined: %s\n", name.c_str());
  }
  if (!scan.recoverable) {
    std::printf("recoverable: NO (%s)\n", scan.error.to_string().c_str());
    return 1;
  }

  // What recover() -- and so MachineManager::open() -- does here.
  for (const auto& snap : scan.snapshots) {
    if (snap.error.ok()) break;
    std::printf("recovery quarantines %s\n", snap.name.c_str());
  }
  std::printf("recovery loads seq %llu and replays %zu journal record(s)\n",
              static_cast<unsigned long long>(scan.seq),
              scan.journal_records.size());
  switch (scan.journal_action) {
    case StateDir::JournalAction::kReset:
      std::printf("recovery starts a fresh journal\n");
      break;
    case StateDir::JournalAction::kQuarantine:
      std::printf("recovery quarantines the journal: %s\n",
                  scan.journal_tail.to_string().c_str());
      break;
    case StateDir::JournalAction::kReplay:
      if (!scan.journal_tail.ok()) {
        std::printf("recovery truncates the journal to %llu bytes: %s\n",
                    static_cast<unsigned long long>(scan.journal_intact_bytes),
                    scan.journal_tail.to_string().c_str());
      }
      break;
  }
  std::printf("recoverable: yes\n");

  if (dump) {
    // Replaying may re-run a reconfigure; dump must stay read-only, so it
    // prints the snapshot recovery loads instead of open()ing.
    lamb::manager::MachineState state;
    lamb::manager::decode_machine_state(scan.snapshot_payload, &state);
    const lamb::manager::Checkpoint& cp = state.checkpoint;
    std::printf("mesh: %s\n", state.shape->to_string().c_str());
    std::printf("epoch: %d (rounds %zu)\n", cp.epoch, cp.orders.size());
    std::printf("node faults: %zu\n", cp.node_faults.size());
    std::printf("link faults: %zu\n", cp.link_faults.size());
    if (cp.pending) {
      std::printf("pending reports: %zu node fault(s), %zu link fault(s)\n",
                  cp.pending_node_faults.size(),
                  cp.pending_link_faults.size());
    }
    std::printf("lambs: %zu\n", cp.lambs.size());
    std::printf("routes vended this epoch: %lld\n",
                static_cast<long long>(cp.routes_vended));
  }
  return 0;
}

int cmd_compact(const std::string& dir) {
  lamb::io::LoadError err;
  lamb::manager::OpenReport report;
  auto manager =
      lamb::manager::MachineManager::open(dir, {}, 8, &report, &err);
  if (manager == nullptr) {
    std::fprintf(stderr, "compact: unrecoverable: %s\n",
                 err.to_string().c_str());
    return 1;
  }
  if (!report.compacted) {
    // Nothing needed repair; compact anyway so the journal resets and
    // old snapshots are pruned.
    manager->compact();
  }
  std::printf("compacted: epoch %d, snapshot seq %llu\n", manager->epoch(),
              static_cast<unsigned long long>(
                  manager->state_dir()->seq()));
  std::printf("records replayed: %lld (reconfigures %lld, rejected %lld)\n",
              static_cast<long long>(report.records_replayed),
              static_cast<long long>(report.reconfigures_replayed),
              static_cast<long long>(report.records_rejected));
  for (const auto& name : report.quarantined) {
    std::printf("quarantined: %s\n", name.c_str());
  }
  return 0;
}

int cmd_flight(const std::string& path, const std::string& bytes,
               bool dump) {
  lamb::io::FlightDump flight;
  const LoadError err = lamb::io::decode_flight_file(bytes, &flight);
  std::printf("flight file: %s\n", path.c_str());
  if (!err.ok()) {
    std::printf("decode: %s\nrecoverable: NO\n", err.to_string().c_str());
    return 1;
  }
  if (flight.kind == "dump") {
    std::printf("kind: sealed dump (reason %s)\n",
                lamb::obs::dump_reason_name(flight.reason));
  } else {
    std::printf("kind: live ring (capacity %zu, torn slots %zu)\n",
                flight.ring_capacity, flight.torn_slots);
  }
  std::printf("events: %zu\n", flight.events.size());
  if (dump && !flight.events.empty()) {
    const lamb::obs::FlightEvent& last = flight.events.back();
    std::printf("last event: seq %llu, epoch %u, %s\n",
                static_cast<unsigned long long>(last.seq), last.epoch,
                lamb::obs::flight_event_type_name(
                    static_cast<lamb::obs::FlightEventType>(last.type)));
  }
  std::printf("recoverable: yes\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process flags arm this process's own flight recorder, which
  // re-homes onto LAMBMESH_FLIGHT and truncates it: never the file being
  // inspected.
  unsetenv("LAMBMESH_FLIGHT");
  const lamb::io::CliArgs args =
      lamb::io::parse_cli(argc, argv, {kCommands, kFlags});
  const std::string& cmd = args.command();
  const std::string& dir = args.positionals()[0];
  if (cmd == "verify" || cmd == "dump") {
    // A flight artifact is a file, not a directory; sniff the magic and
    // route it to the flight decoder.
    std::string bytes;
    LoadError read_err;
    if (lamb::io::read_file_bytes(dir, &bytes, &read_err) &&
        lamb::io::looks_like_flight_file(bytes)) {
      return cmd_flight(dir, bytes, cmd == "dump");
    }
  }
  if (cmd == "verify") return cmd_verify(dir, /*dump=*/false);
  if (cmd == "dump") return cmd_verify(dir, /*dump=*/true);
  return cmd_compact(dir);
}
